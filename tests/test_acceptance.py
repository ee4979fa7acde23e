"""Acceptance gate: one test per primary criterion, each printing a single
PASS line on success (pytest -v adds the per-test verdict)."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ngontheta.qspace import QuadraticSpace, NegativePlane
from ngontheta.errfn import E1, E2, E3
from ngontheta.ngon import validate, epsilon, w_invariant, linking_number
from ngontheta.sig12 import (SPACE_ABC, E2_ABC, E3_ABC, recover_ngon,
                             fundamental_ngon, truncated_class_series)
from ngontheta.lattice import (LatticeCoset, EnumWindow, CertificationError,
                               certify_window, enumerate_coset,
                               holomorphic_series, modularity_check)
from ngontheta import jsonio

from conftest import (SPACE_E, batch_ks, butterfly_ngon, cyclic_equal,
                      dodec_violations, random_negative_abc, recipe_step,
                      reduced_forms, window_at_safety)

SQUARE = [(-1, 1), (1, 1), (Fraction(3, 2), 3), (Fraction(-3, 2), 3)]


def _chain(n):
    """Vertices r + i, r = 0..n-1."""
    return [(r, 1) for r in range(n)]


def _mixed_chain(k, ell, height=10):
    """k bottom vertices at height 1 and ell top vertices at height `height`,
    traversed bottom left-to-right then top right-to-left."""
    return [(r, 1) for r in range(k)] + \
        [(r, height) for r in reversed(range(ell))]


def _range_67(n):
    """Allowed w values: N even {4-N, 8-N, ..., N-4}; N odd {4-N, ..., N-2}."""
    hi = n - 3 if n % 2 == 0 else n - 1
    return set(range(4 - n, hi, 4))


def _report(num, label):
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_01_w_invariant_values():
    t0 = time.monotonic()
    assert w_invariant(fundamental_ngon(2)) == 0
    assert w_invariant(recover_ngon([(0, 1), (1, 1), (0, 2)])) == 1
    assert w_invariant(recover_ngon([(-2, 1), (2, 1), (0, 4)])) == 1
    for n in (5, 6, 7):
        assert w_invariant(recover_ngon(_chain(n))) == 4 - n
    for (k, ell) in ((1, 2), (2, 2), (1, 4), (3, 2)):
        g = recover_ngon(_mixed_chain(k, ell))
        assert w_invariant(g) == (k + ell) - 2 * k
    for n in range(3, 10):
        got = set()
        for k in range(1, n - 1):
            ell = n - k
            if ell < 2 or ell % 2:
                continue
            got.add(w_invariant(recover_ngon(_mixed_chain(k, ell))))
        assert got == _range_67(n), n
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    _report(1, "w-invariant worked values and full allowed-range check")


def test_criterion_02_w_independence():
    t0 = time.monotonic()
    rng = random.Random(1001)
    polys = [fundamental_ngon(2), butterfly_ngon(),
             recover_ngon(SQUARE), recover_ngon(_chain(5)),
             recover_ngon(_mixed_chain(1, 4))]
    for g in polys:
        base = w_invariant(g)
        assert abs(base) <= g.n - 2
        assert (base + g.n) % 4 == 0
        for _ in range(100):
            assert w_invariant(g, random_negative_abc(rng)) == base
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed
    _report(2, "w independent of the negative vector; bound and congruence")


def _random_valid_hexagon(rng):
    while True:
        try:
            xs = sorted(rng.sample(range(-6, 7), 3))
            ys = sorted(rng.sample(range(-6, 7), 3))
            pts = [(x, 1) for x in xs] + [(y, 8) for y in reversed(ys)]
            g = recover_ngon(pts)
            if g.n == 6:
                return g
        except ValueError:
            continue


def test_criterion_03_linking_law():
    t0 = time.monotonic()
    rng = random.Random(1003)
    polys = [recover_ngon(SQUARE), recover_ngon(_chain(5)),
             fundamental_ngon(2), butterfly_ngon(),
             _random_valid_hexagon(rng)]
    for g in polys:
        done = 0
        while done < 50:
            x = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                      for _ in range(3))
            if SPACE_ABC.q(x) <= 0 or \
                    any(SPACE_ABC.inner(x, c) == 0 for c in g.cs):
                continue
            assert epsilon(g, x).eps == 4 * linking_number(g, x), (g, x)
            done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    _report(3, "eps(x) = 4 * linking number on 5 polygons x 50 points")


def test_criterion_04_vanishing_on_nonpositive_norms():
    t0 = time.monotonic()
    g = fundamental_ngon(2)
    window = certify_window(g, NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC)), 50)
    batch = enumerate_coset(LatticeCoset(SPACE_ABC), window)
    signs = g.sign_matrix(batch.xnum)
    prod = np.einsum('ij,ij->i', signs, np.roll(signs, -1, axis=1))
    eps = w_invariant(g) + prod
    checked = 0
    for i in range(len(eps)):
        if batch.xx_num[i] <= 0 and any(batch.xnum[i]):
            assert eps[i] == 0
            checked += 1
    assert checked > 1000
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    _report(4, f"kernel vanishes on all {checked} enumerated x != 0 "
               "with Q(x) <= 0")


def test_criterion_05_class_number_counts():
    t0 = time.monotonic()
    # stated coefficients, with the truncation high enough that every CM
    # point of the listed discriminants is interior
    s_wide = truncated_class_series(4, 45)
    assert s_wide.coeff(8) == 2
    assert s_wide.coeff(24) == 4
    assert s_wide.coeff(40) == 4
    # independent reduced-forms oracle at T=2 for every regular exponent
    s = truncated_class_series(2, 50)
    cut = Fraction(2) ** 2 + Fraction(1, 4)
    for n in range(1, 51):
        if n in s.flags:
            continue
        oracle = 2 * sum(1 for (a, b, c) in reduced_forms(n)
                         if Fraction(c, a) < cut)
        assert s.coeff(n) == oracle, n
    assert {3, 4, 11, 20}.issubset(s.flags)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    _report(5, "c(8)=2, c(24)=4, c(40)=4; oracle match; boundary flags")


def test_criterion_06_error_function_suite():
    t0 = time.monotonic()
    rng = random.Random(1006)
    # E1 closed form against 1-D quadrature
    for _ in range(10):
        c = (0, rng.randint(-4, 4), rng.randint(-4, 4))
        if SPACE_E.inner(c, c) >= 0:
            continue
        x = np.array([rng.uniform(-3, 3) for _ in range(3)])
        u = float(x @ SPACE_E.gram_f @ np.array([float(v) for v in c])) / \
            math.sqrt(-float(SPACE_E.inner(c, c)))
        gauss = lambda t: math.exp(-math.pi * (t - u) ** 2)
        neg, _ = quad(gauss, u - 30, 0.0, epsabs=1e-14, limit=300)
        pos, _ = quad(gauss, 0.0, u + 30, epsabs=1e-14, limit=300)
        assert abs(E1(SPACE_E, c, x) - (pos - neg)) < 1e-10
    # factorization on orthogonal data
    sp4 = QuadraticSpace([[2, 0, 0, 0], [0, -2, 0, 0],
                          [0, 0, -2, 0], [0, 0, 0, -2]])
    c1, c2, c3 = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    for _ in range(5):
        x3 = np.array([rng.uniform(-2, 2) for _ in range(3)])
        assert abs(E2(SPACE_E, (0, 1, 0), (0, 0, 1), x3)
                   - E1(SPACE_E, (0, 1, 0), x3)
                   * E1(SPACE_E, (0, 0, 1), x3)) < 1e-8
        x4 = np.array([rng.uniform(-1.5, 1.5) for _ in range(4)])
        assert abs(E3(sp4, c1, c2, c3, x4)
                   - E1(sp4, c1, x4) * E1(sp4, c2, x4)
                   * E1(sp4, c3, x4)) < 1e-8
    # projection- and positive-scaling-invariance
    d1, d2 = (0, 1, 1), (0, -1, 1)
    for _ in range(5):
        x = np.array([rng.uniform(-2, 2) for _ in range(3)])
        y = x + np.array([rng.uniform(-3, 3), 0.0, 0.0])
        assert abs(E2(SPACE_E, d1, d2, x) - E2(SPACE_E, d1, d2, y)) < 1e-8
        assert abs(E2(SPACE_E, d1, d2, x)
                   - E2(SPACE_E, tuple(3 * t for t in d1),
                        tuple(Fraction(1, 7) * t for t in d2), x)) < 1e-8
    # limit to the sign product at margin 4
    e1, e2 = (0, 1, 0), (0, 1, 3)
    pl = NegativePlane(SPACE_E, (e1, e2))
    a = np.array([pl.ortho @ SPACE_E.gram_f @
                  np.array([float(v) for v in c]) for c in (e1, e2)])
    hits = 0
    while hits < 5:
        x = np.array([rng.uniform(-1, 1) for _ in range(3)])
        u = pl.frame[1] @ x
        margins = np.abs(a @ u) / np.linalg.norm(a, axis=1)
        if np.min(margins) < 1e-2:
            continue
        r = 4.0 / np.min(margins)
        s = np.sign(a @ u)
        assert abs(E2(SPACE_E, e1, e2, r * x) - s[0] * s[1]) < 1e-6
        hits += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    _report(6, "E1/E2/E3 quadrature, factorization, invariance, limits")


def test_criterion_07_completion_consistency(monkeypatch):
    t0 = time.monotonic()
    g = fundamental_ngon(2)
    tau = complex(0.0, 1.0)
    rep10 = modularity_check(SPACE_ABC, g, tau, 10)
    rep20 = modularity_check(SPACE_ABC, g, tau, 20)
    cauchy = float(np.max(np.abs(rep20["theta"] - rep10["theta"])))
    assert cauchy < 1e-6, cauchy
    assert rep20["t_defect"] < 1e-8, rep20["t_defect"]
    assert rep20["s_defect"] < 1e-3, rep20["s_defect"]
    assert rep20["tail"] < 1e-6           # heuristic tail estimate reported
    # negative control: corrupting w by +4 must break the S-transform check
    kernel = g.kernel
    monkeypatch.setattr(g, "kernel", lambda signs: kernel(signs) + 4)
    bad = modularity_check(SPACE_ABC, g, tau, 10)
    assert bad["s_defect"] >= 0.1, bad["s_defect"]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    _report(7, f"Cauchy {cauchy:.2e}; T/S defects "
               f"{rep20['t_defect']:.2e}/{rep20['s_defect']:.2e}; "
               f"corrupted-w defect {bad['s_defect']:.2e}")


def test_criterion_08_enumeration_certification():
    t0 = time.monotonic()
    from conftest import EXAMPLES
    # each packaged-example series runs on a window proved exactly, and a
    # window at twice the safety, B doubled, leaves it unchanged
    space, cs = jsonio.load_ngon_file(str(EXAMPLES / "funddom.json"))
    g = validate(space, cs)
    coset = LatticeCoset(space)
    s1 = holomorphic_series(coset, g, 20)
    s2 = holomorphic_series(coset, g, 20,
                            window=window_at_safety(s1.window, 3.0))
    assert s1.entries == s2.entries and s1.flags == s2.flags
    dspace, dcs = jsonio.load_dodec_file(str(EXAMPLES / "dodec_seed.json"))
    from ngontheta.dodec import validate_dodec, dodec_series
    dd = validate_dodec(dspace, dcs)
    d1 = dodec_series(LatticeCoset(dspace), dd, 2)
    d2 = dodec_series(LatticeCoset(dspace), dd, 2,
                      window=window_at_safety(d1.window, 3.0))
    assert d1.entries == d2.entries and d1.flags == d2.flags
    # a window 1% below the float kappa is refused
    for qe, walls, series in ((s1, g, holomorphic_series),
                              (d1, dd, dodec_series)):
        low = window_at_safety(qe.window, 0.99)
        with pytest.raises(CertificationError):
            series(LatticeCoset(walls.space), walls, qe.nmax, window=low)
    # the B = 4 window about the base plane holds exactly 7 vectors
    window = EnumWindow(z0=NegativePlane(SPACE_ABC, (E2_ABC, E3_ABC)),
                        B=Fraction(4), kappa=1.0)
    batch = enumerate_coset(LatticeCoset(SPACE_ABC), window)
    got = sorted(tuple(int(v) for v in row) for row in batch_ks(batch))
    assert got == sorted([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                          (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    _report(8, "proved windows; safety-doubling invariance; 1% below "
               "refused; B=4 window holds 7 vectors")


def test_criterion_09_dodecahedron(space_q3, seed_dodec):
    t0 = time.monotonic()
    from ngontheta.dodec import cycle_table, seed_construction, dodec_P_kernel
    comb = cycle_table()
    # recipe regenerates the table from F(0) alone
    known = {0: comb.cycles[0]}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in known[i]:
            step = recipe_step(known[i], i, j)
            if j not in known:
                known[j] = step
                frontier.append(j)
    assert len(known) == 12
    assert all(cyclic_equal(known[i], comb.cycles[i]) for i in range(12))
    # vertex census and the verbatim adjacent-cycle example
    assert len(comb.vertices) == 20
    for i in range(12):
        assert sum(1 for tri in comb.vertices if i in tri) == 5
    assert recipe_step(comb.cycles[4], 4, 5) == (0, 4, 9, 8, 1) == \
        comb.cycles[5]
    # seed validity at t = 0 and at 20 random small rational displacements
    z0 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    v0 = (1, 0, 0, 0)
    assert dodec_violations(
        space_q3, seed_construction(space_q3, z0, v0, 0)) == []
    rng = random.Random(1009)
    for _ in range(20):
        ts = [Fraction(rng.randint(-10, 10), 400) for _ in range(12)]
        cs = seed_construction(space_q3, z0, v0, ts)
        assert dodec_violations(space_q3, cs) == []
    # per-face invariants and eighth-integrality of P
    assert all(w in (-1, 3) for w in seed_dodec.face_w)
    done = 0
    while done < 200:
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(4))
        if any(space_q3.inner(x, c) == 0 for c in seed_dodec.cs):
            continue
        p = dodec_P_kernel(seed_dodec, x)
        assert (8 * p).denominator == 1
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    _report(9, "cycle-table recipe, vertex census, seed validity, "
               "face invariants, 8P integrality")


def test_criterion_10_determinism(monkeypatch, seed_dodec, space_q3):
    from ngontheta.dodec import dodec_series
    from ngontheta.lattice import completion_eval
    g = fundamental_ngon(2)
    coset = LatticeCoset(SPACE_ABC)
    outputs = []
    for nt in ("1", "2", "8"):
        monkeypatch.setenv("NGON_THETA_THREADS", nt)
        qe = holomorphic_series(coset, g, 12, normalized=True)
        de = dodec_series(LatticeCoset(space_q3), seed_dodec, 2)
        val, tail = completion_eval(coset, g, complex(0.31, 0.83), 8)
        blob = (
            jsonio.dump_json(jsonio.qexpansion_to_json(qe)),
            jsonio.dump_json(jsonio.qexpansion_to_json(de)),
            repr((val.real, val.imag, tail)),
        )
        outputs.append(blob)
    assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "series and completion outputs byte-identical across "
                "1/2/8 worker threads")
