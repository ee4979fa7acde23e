import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ngontheta.qspace import QuadraticSpace, NegativePlane
from ngontheta.lattice import (LatticeCoset, EnumWindow, CertificationError,
                               window_from_planes, certify_window,
                               enumerate_coset)
from ngontheta import jsonio, lattice
from ngontheta.dodec import (bar, cycle_table, DodecValidationError,
                             validate_dodec,
                             dodec_P_kernel, dodec_E_kernel,
                             seed_construction, PHI_HAT, dodec_series)
from ngontheta.cli import main

from conftest import (EXAMPLES, REPO, check_dodec_conditions_vec,
                      cyclic_equal, dodec_D_kernel, dodec_D_vec, dodec_P_rows,
                      dodec_violations, face_w_vec,
                      guard_band_hits, outcome, project_perp, recipe_step,
                      window_at_safety, regular_choice_signs,
                      regular_negative_vector_vec, regular_signs_vec, vec_add,
                      vec_scale)

SP4 = QuadraticSpace([[4, 0, 0, 0], [0, -2, 0, 0],
                      [0, 0, -2, 0], [0, 0, 0, -2]])
Z0 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
V0 = (1, 0, 0, 0)
TS = [Fraction(a + 3, 40) for a in range(12)]


def _random_vec(rng, dim=4):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(dim))


def test_bar_is_fixed_point_free_involution():
    for a in range(12):
        assert bar(bar(a)) == a
        assert bar(a) != a
        assert 0 <= bar(a) < 12


def test_cycle_table_structure():
    """The invariants of the fixed table: 20 distinct vertex triples, each
    shared by exactly 3 faces; each cycle 5 distinct faces other than i and
    its antipode; adjacency symmetric, and the recipe maps F(i) to a
    rotation of F(j) for every adjacent pair."""
    comb = cycle_table()
    assert len(comb.vertices) == 20
    counts = {}
    for i in range(12):
        cyc = comb.cycles[i]
        assert len(set(cyc)) == 5 and i not in cyc and bar(i) not in cyc
        for j in cyc:
            assert i in comb.cycles[j]
            assert cyclic_equal(recipe_step(cyc, i, j), comb.cycles[j])
        for k in range(5):
            key = frozenset((i, cyc[k], cyc[(k + 1) % 5]))
            counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 20 and set(counts.values()) == {3}
    assert {frozenset(t) for t in comb.vertices} == set(counts)
    # each face borders 5 faces and sits in exactly 5 vertex triples
    for i in range(12):
        assert len(comb.cycles[i]) == 5
        assert sum(1 for tri in comb.vertices if i in tri) == 5
    # the two faces flanking i in any triple are themselves adjacent
    for (i, u, v) in comb.vertices:
        assert v in comb.cycles[u] and u in comb.cycles[v]
    # antipodal cycle is the reversed bar image
    for a in range(12):
        assert comb.cycles[bar(a)] == tuple(bar(x)
                                            for x in reversed(comb.cycles[a]))


def test_recipe_regenerates_table_from_one_cycle():
    comb = cycle_table()
    known = {0: comb.cycles[0]}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in known[i]:
            step = recipe_step(known[i], i, j)
            if j in known:
                assert cyclic_equal(step, known[j])
            else:
                known[j] = step
                frontier.append(j)
    assert len(known) == 12
    for i in range(12):
        assert cyclic_equal(known[i], comb.cycles[i])


def test_recipe_verbatim_example():
    comb = cycle_table()
    assert recipe_step(comb.cycles[4], 4, 5) == (0, 4, 9, 8, 1)
    assert comb.cycles[5] == (0, 4, 9, 8, 1)


def test_recipe_rejects_non_adjacent():
    comb = cycle_table()
    with pytest.raises(ValueError):
        recipe_step(comb.cycles[0], 0, bar(0))


def test_seed_valid_at_zero_and_fixture(space_q3, seed_dodec):
    cs0 = seed_construction(space_q3, Z0[:3], V0, 0)
    assert dodec_violations(space_q3, cs0) == []
    assert dodec_violations(space_q3, seed_dodec.cs) == []


def test_seed_frame_validation(space_q3):
    with pytest.raises(ValueError):
        seed_construction(space_q3, ((0, 1, 0, 0), (0, 1, 1, 0),
                                     (0, 0, 0, 1)), V0, 0)  # not orthogonal
    with pytest.raises(ValueError):
        seed_construction(space_q3, ((0, 2, 0, 0), (0, 0, 1, 0),
                                     (0, 0, 0, 1)), V0, 0)  # unequal norms
    with pytest.raises(ValueError):
        seed_construction(space_q3, Z0, (0, 1, 0, 0), 0)    # v0 negative
    with pytest.raises(ValueError):
        seed_construction(space_q3, Z0, (1, 1, 0, 0), 0)    # v0 not orthogonal
    with pytest.raises(ValueError):
        seed_construction(space_q3, Z0, V0, [0, 1])         # wrong length


def test_negated_normal_rejected(space_q3, seed_dodec):
    bad = list(seed_dodec.cs)
    bad[0] = tuple(-t for t in bad[0])
    diags = dodec_violations(space_q3, bad)
    assert sorted(set(i for i, _ in diags)) == [1, 2, 3, 4, 5]
    with pytest.raises(DodecValidationError):
        validate_dodec(space_q3, bad)


def test_cell_with_c2_orthogonal_to_c0_c1_runs(space_q3, seed_dodec,
                                               tmp_path, capsys):
    """C_2 moved orthogonal to C_0 and C_1 keeps every face condition, and
    no C_0 + C_1/k is regular, but a C_0 + C_1/k + C_2/k^2 on the first
    vertex is: `dodec validate`, `dodec kernel` and `dodec series` exit 0 on
    the cell, whose level is the seed's."""
    from ngontheta import jsonio
    cs = list(seed_dodec.cs)
    u = project_perp(space_q3, cs[1], cs[0])
    cs[2] = project_perp(space_q3, project_perp(space_q3, cs[2], cs[0]), u)
    assert space_q3.inner(cs[0], cs[2]) == space_q3.inner(cs[1], cs[2]) == 0
    v = regular_negative_vector_vec(space_q3, cs)
    assert v != cs[0] and space_q3.inner(v, v) < 0
    assert regular_choice_signs(space_q3, cs) == \
        regular_signs_vec(space_q3, cs)
    d = validate_dodec(space_q3, cs)
    assert d.level_at() == seed_dodec.level_at() == 0
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({
        "schema_version": 1, "space": jsonio.space_to_json(space_q3),
        "cs": [jsonio.vector_to_json(c) for c in cs]}))
    assert main(["dodec", "validate", "--data", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"schema_version": 1,
                                                   "valid": True}
    for argv in (["kernel", "--x", "1,0,0,0"], ["series", "--nmax", "2"]):
        assert main(["dodec", argv[0], "--data", str(path), *argv[1:]]) == 0
        out = capsys.readouterr()
        assert out.err == "" and json.loads(out.out)


def test_dodec_rejects_wrong_shape(space_q3, space_abc):
    with pytest.raises(ValueError):
        validate_dodec(space_abc, [(0, 1, 0)] * 12)   # signature (1,2)
    with pytest.raises(ValueError):
        validate_dodec(space_q3, [(0, 1, 0, 0)] * 11)


def test_face_w_values(seed_dodec):
    # per-face 5-gon invariants satisfy w == -5 == 3 (mod 4) with |w| <= 3
    assert all(w in (-1, 3) for w in seed_dodec.face_w)
    assert seed_dodec.face_w == (-1,) * 12


def test_d_kernel_basic_values(seed_dodec):
    assert dodec_D_kernel(seed_dodec, (1, 0, 0, 0)) == 1
    assert dodec_D_kernel(seed_dodec, (0, 0, 0, 0)) == 0


def test_d_kernel_odd_bounded_eighth_integral(seed_dodec):
    rng = random.Random(31)
    for _ in range(60):
        x = _random_vec(rng)
        d = dodec_D_kernel(seed_dodec, x)
        assert d == -dodec_D_kernel(seed_dodec, tuple(-t for t in x))
        assert (8 * d).denominator == 1
        assert abs(d) <= 7


def test_d_kernel_vanishes_on_negative_vectors(seed_dodec):
    rng = random.Random(33)
    hits = 0
    for _ in range(300):
        v = _random_vec(rng)
        if seed_dodec.space.inner(v, v) < 0:
            hits += 1
            assert dodec_D_kernel(seed_dodec, v) == 0
    assert hits > 50


def test_p_kernel_properties(seed_dodec):
    rng = random.Random(35)
    v0 = regular_negative_vector_vec(seed_dodec.space, seed_dodec.cs)
    assert seed_dodec.space.inner(v0, v0) < 0
    assert dodec_P_kernel(seed_dodec, v0) == 0
    with pytest.raises(ValueError):
        dodec_P_kernel(seed_dodec, (1, 0, 0, 0), v=(1, 0, 0, 0))
    # P is independent of the chosen base vector v
    for _ in range(20):
        v = _random_vec(rng)
        if not seed_dodec.space.inner(v, v) < 0:
            continue
        for x in ((1, 0, 0, 0), (2, 1, 0, 1), (3, -1, 2, 0)):
            assert dodec_P_kernel(seed_dodec, x, v=v) == \
                dodec_P_kernel(seed_dodec, x)


def test_e_kernel_continuous_across_wall(seed_dodec):
    # the ray x(s) = e1 + s (0, 1/10, 3/40, 0) leaves the cell through the
    # wall (x, C_2) = 0 at s0; D jumps there while E stays continuous
    def ray(s):
        return (1, s * Fraction(1, 10), s * Fraction(3, 40), 0)

    s0 = Fraction(2500, 4427)
    assert seed_dodec.space.inner(ray(s0), seed_dodec.cs[2]) == 0
    assert [i for i in range(12)
            if seed_dodec.space.inner(ray(s0), seed_dodec.cs[i]) == 0] == [2]
    delta = Fraction(1, 1000)
    lo, hi = ray(s0 - delta), ray(s0 + delta)
    assert dodec_D_kernel(seed_dodec, lo) == 1
    assert dodec_D_kernel(seed_dodec, hi) == 0
    a = dodec_E_kernel(seed_dodec, lo)
    b = dodec_E_kernel(seed_dodec, hi)
    assert abs(a - b) < 1e-2


# dodec_E_kernel on the seed dodecahedron as computed with an adaptive
# dblquad for every solid-cone mass, before the fixed-node rule replaced it
F = Fraction
E_PINNED = (
    ((1, F(2495573, 44270000), F(7486719, 177080000), 0),
     0.04095209400764584),
    ((1, F(1, 10), F(3, 40), 0), 0.03440609192880646),
    ((F(1, 2), F(-1, 3), F(1, 4), F(1, 5)), 0.0002458859055085444),
    ((F(-2, 3), F(1, 7), F(2, 9), F(-1, 2)), -0.00021098834946033096),
    ((F(1, 4), F(1, 8), 0, F(-1, 16)), -0.0006892688866699612),
    ((F(3, 2), F(-1, 4), 0, F(5, 6)), 9.597060716140526e-06),
)


def test_e_kernel_pinned_values(seed_dodec):
    for x, want in E_PINNED:
        got = dodec_E_kernel(seed_dodec, x)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-11, (x, got, want)


def test_e_kernel_limits_to_d(seed_dodec):
    x = (1, 0, 0, 0)
    val = dodec_E_kernel(seed_dodec, tuple(40 * t for t in x))
    assert abs(val - float(dodec_D_kernel(seed_dodec, x))) < 1e-6


def _dodec_edges(comb):
    """The 30 edges as (i, j, a, b): faces i < j adjacent, with F(i)
    containing the subsequence (a, j, b)."""
    out = []
    for i in range(12):
        cyc = comb.cycles[i]
        for p in range(5):
            j = cyc[p]
            if j < i:
                continue
            a, b = cyc[(p - 1) % 5], cyc[(p + 1) % 5]
            out.append((i, j, a, b))
    return out


def _edge_planes(dodec, samples=64):
    """Oracle: `samples` interior planes [C_i, C_j, (s-1) C_a + s C_b] per
    edge, s = k/(samples+1)."""
    planes = []
    for (i, j, a, b) in _dodec_edges(dodec.comb):
        for k in range(1, samples + 1):
            s = Fraction(k, samples + 1)
            third = vec_add(vec_scale(s - 1, dodec.cs[a]),
                            vec_scale(s, dodec.cs[b]))
            planes.append(NegativePlane(dodec.space,
                                        (dodec.cs[i], dodec.cs[j], third)))
    return planes


def test_vertex_kappa_bounds_edge_samples():
    # log lambda_max(M_z0, M_z) is convex along the geodesic edges, so the
    # 20 vertex 3-planes alone must bound kappa over every edge sample
    rng = random.Random(11)
    for _ in range(3):
        space = QuadraticSpace([[rng.choice((2, 4, 6)), 0, 0, 0],
                                [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]])
        ts = [Fraction(rng.randint(-20, 20), 40) for _ in range(12)]
        dodec = validate_dodec(space, seed_construction(space, Z0, V0, ts))
        assert len(_dodec_edges(dodec.comb)) == 30
        planes = _edge_planes(dodec)
        vertex_plane = rng.choice(dodec.vertex_planes)
        # a 3-plane tilted towards the positive axis by |r|^2 <= 3/16
        r = [Fraction(rng.randint(-4, 4), 16) for _ in range(3)]
        tilted = tuple((r[k],) + Z0[k][1:] for k in range(3))
        for z0 in (vertex_plane, NegativePlane(space, tilted)):
            vertex = certify_window(dodec, z0, 1).kappa
            edge = window_from_planes(z0, planes, 1).kappa
            assert vertex >= edge * (1 - 1e-12), (vertex, edge)


def test_vertex_planes_are_negative(seed_dodec):
    for tri in seed_dodec.comb.vertices:
        NegativePlane(seed_dodec.space, [seed_dodec.cs[a] for a in tri])


@pytest.fixture(scope="module")
def seed_dodec4():
    cs = seed_construction(SP4, Z0, V0, TS)
    return validate_dodec(SP4, cs)


def test_dodec_series_shifted_coset(seed_dodec4):
    mu = (Fraction(1, 4), 0, 0, 0)
    series = dodec_series(LatticeCoset(SP4, mu), seed_dodec4, 4)
    assert series.coeff(Fraction(1, 8)) == 1
    assert series.coeff(Fraction(9, 8)) == -1
    assert series.coeff(Fraction(25, 8)) == 1
    for c in series.entries.values():
        assert (8 * c).denominator == 1


def test_dodec_series_zero_coset_vanishes(seed_dodec4):
    # P is odd and D(v) = 0, so the antipodally symmetric coset cancels
    series = dodec_series(LatticeCoset(SP4), seed_dodec4, 4)
    assert all(c == 0 for c in series.entries.values())


def test_dodec_series_safety_invariance(seed_dodec4):
    # the series does not depend on the window's margin over the proof: the
    # default window (SAFETY = 1.5) and one at safety 3, B doubled, agree
    mu = (Fraction(1, 4), 0, 0, 0)
    s1 = dodec_series(LatticeCoset(SP4, mu), seed_dodec4, 3)
    wide = window_at_safety(s1.window, 3.0)
    s2 = dodec_series(LatticeCoset(SP4, mu), seed_dodec4, 3, window=wide)
    assert wide.B == 2 * s1.window.B and s2.window is wide
    assert s1.entries == s2.entries
    assert s1.flags == s2.flags


def test_dodec_unproved_window_raises(seed_dodec4, monkeypatch):
    # B = 2 about the default base plane: the P-supported x with Q = 9/8
    # has (x,x)_{z0} ~ 2.30 and lies outside it, which the guard-band
    # oracle sees and the exact proof refuses, with no second window
    def small(z0):
        return EnumWindow(z0=z0, B=Fraction(2), kappa=1.0)

    def unused(*args, **kwargs):
        raise AssertionError("a second window was certified")

    z0 = seed_dodec4.vertex_planes[0]
    coset = LatticeCoset(SP4, (Fraction(1, 4), 0, 0, 0))
    assert guard_band_hits(seed_dodec4, coset, small(z0), 2)
    monkeypatch.setattr(lattice, "certify_window", unused)
    with pytest.raises(CertificationError, match="not proved for nmax = 2"):
        dodec_series(coset, seed_dodec4, 2, window=small(z0))


def test_dodec_window_grows_with_nmax(seed_dodec4):
    z0 = seed_dodec4.vertex_planes[0]
    w1 = certify_window(seed_dodec4, z0, 2)
    w2 = certify_window(seed_dodec4, z0, 4)
    assert w2.B >= 2 * w1.B * Fraction(63, 64)


# --- diag(6, -2, -2, -2): a dodecahedral lattice whose series can fail -----
# On diag(2, -2, -2, -2) every coset is its own negative and P is odd, so
# every series there is 0.  examples/dodec_seed48.json takes the same seed
# cell on diag(6, -2, -2, -2), |L'/L| = 48, where mu = (a/6, b/2, c/2, d/2)
# and -mu differ for a != 0, 3.

MUS48 = [(Fraction(a, 6),) + tuple(Fraction(b, 2) for b in bs)
         for a in range(6) for bs in itertools.product(range(2), repeat=3)]


@pytest.fixture(scope="module")
def dodec48():
    """The cell of examples/dodec_seed48.json and its series on all 48
    cosets at nmax 12."""
    space, cs = jsonio.load_dodec_file(str(EXAMPLES / "dodec_seed48.json"))
    dodec = validate_dodec(space, cs)
    assert space.gram[0][0] == 6 and len(MUS48) == 48
    return dodec, {mu: dodec_series(LatticeCoset(space, mu), dodec, 12)
                   for mu in MUS48}


def test_dodec48_series_match_brute_force_oracle(dodec48):
    # every coefficient is the sum of 8 P(x)/8 over the coset's x with 0 <
    # Q(x) <= 12 in a window of twice the proved B, each P from the
    # conftest oracle's exact pairings: the oracle does not trust the
    # window proof.  32 cosets are nonzero and 22 carry flags.
    dodec, series = dodec48
    space = dodec.space
    eight_p = dodec_P_rows(space, dodec.cs, face_w_vec(space, dodec.cs))
    gram = [[int(g) for g in row] for row in space.gram]
    for mu, s in series.items():
        wide = enumerate_coset(LatticeCoset(space, mu), EnumWindow(
            s.window.z0, 2 * s.window.B, s.window.kappa), qmax=12)
        d2 = wide.dmu ** 2
        sums = {}               # (x, x) dmu^2 -> sum of 8 P(x)
        for x in wide.xnum.tolist():
            xx = sum(a * sum(map(int.__mul__, row, x))
                     for a, row in zip(x, gram))
            if 0 < xx <= 24 * d2:
                sums[xx] = sums.get(xx, 0) + eight_p(x)
        assert {Fraction(xx, 2 * d2): Fraction(c, 8)
                for xx, c in sums.items() if c} == \
            {n: c for n, c in s.entries.items() if c}, mu
    assert sum(any(s.entries.values()) for s in series.values()) == 32
    assert sum(bool(s.flags) for s in series.values()) == 22


def test_dodec48_shifted_coset(dodec48):
    s = dodec48[1][(Fraction(1, 6), 0, 0, 0)]
    assert {n: c for n, c in s.entries.items() if c} == {
        Fraction(1, 12): 1, Fraction(25, 12): -1, Fraction(49, 12): 1,
        Fraction(121, 12): -1}


def test_dodec48_series_odd_in_mu(dodec48):
    # P is odd (D(v) = 0) and x -> -x maps the coset mu onto -mu: theta_{-mu}
    # = -theta_mu, with the same flagged exponents
    dodec, series = dodec48
    assert dodec.level_at() == 0
    for mu, s in series.items():
        neg = series[tuple(-m % 1 for m in mu)]
        assert neg.entries == {n: -c for n, c in s.entries.items()}, mu
        assert neg.flags == s.flags


def test_dodec48_safety_invariance(dodec48):
    # a window at safety 3, B doubled, gives every coset's series; its
    # flags only grow, since a flag marks any window row with a zero sign
    # (ROADMAP item 2: 14 of the 48 cosets gain flags here)
    dodec, series = dodec48
    for mu, s in series.items():
        wide = window_at_safety(s.window, 3.0)
        s3 = dodec_series(LatticeCoset(dodec.space, mu), dodec, 12,
                          window=wide)
        assert wide.B == 2 * s.window.B
        assert s3.entries == s.entries and s3.flags >= s.flags, mu


# --- the integer-Gram path against the vector oracles of conftest -----------

small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
vec4 = st.tuples(small, small, small, small)


def _report(check, space, cs):
    """(face, j, condition, message) of every violation, or the diagnostics
    and message of the DodecValidationError that the check raised."""
    try:
        return [(i, v.j, v.condition, v.message) for i, v in check(space, cs)]
    except DodecValidationError as e:
        return ("raised", e.diagnostics, str(e))


@settings(max_examples=100, deadline=None)
@given(ts=st.lists(st.fractions(0, 1, max_denominator=40), min_size=12,
                   max_size=12),
       move=st.sampled_from(["none", "shift", "perp"]),
       j=st.integers(2, 11), j2=st.integers(2, 11),
       scale=st.sampled_from([Fraction(1, 100), Fraction(1, 10), 1, 5]),
       delta=vec4, xs=st.lists(vec4, min_size=2, max_size=4),
       wall=st.integers(0, 11))
def test_gram_path_matches_vector_oracle(space_q3, ts, move, j, j2, scale,
                                         delta, xs, wall):
    """Seed dodecahedra at random t, one vector shifted (valid or not), or
    two vectors made orthogonal to C_0 and to C_0 + C_1/2 + C_2/4 (so that
    the negative vector needs k >= 3): violation reports, face_w, the default
    negative vector, D, P and the row kernel agree with the projected-vector
    code, also at x orthogonal to some C_i."""
    sp = space_q3
    cs = list(seed_construction(sp, Z0, V0, ts))
    if move == "shift":
        cs[j] = vec_add(cs[j], vec_scale(scale, delta))
    elif move == "perp":
        assume(j != j2 and 2 not in (j, j2))
        half = vec_add(vec_add(cs[0], vec_scale(Fraction(1, 2), cs[1])),
                       vec_scale(Fraction(1, 4), cs[2]))
        assume(sp.inner(half, half) != 0)
        cs[j] = project_perp(sp, cs[j], cs[0])
        cs[j2] = project_perp(sp, cs[j2], half)
    want = _report(check_dodec_conditions_vec, sp, cs)
    assert _report(dodec_violations, sp, cs) == want
    # both search the same k <= 2N + 1 on C_0 + C_1/k + C_2/k^2; where none
    # qualifies (a C_j made orthogonal to C_0 can be orthogonal to C_1 and
    # C_2 as well) both raise the same RuntimeError
    assert outcome(regular_choice_signs, sp, cs) == \
        outcome(regular_signs_vec, sp, cs)
    if want != []:
        return
    d = validate_dodec(sp, cs)
    assert d.face_w == face_w_vec(sp, cs)
    v = regular_negative_vector_vec(sp, cs)
    assert regular_choice_signs(d.space, d.cs) == regular_signs_vec(sp, cs)
    dv = dodec_D_vec(sp, cs, d.face_w, v)
    for x in list(xs) + [project_perp(sp, x, cs[wall]) for x in xs]:
        dx = dodec_D_vec(sp, cs, d.face_w, x)
        assert dodec_D_kernel(d, x) == dx
        assert dodec_P_kernel(d, x) == dx - dv
        signs = np.array([[(sp.inner(x, c) > 0) - (sp.inner(x, c) < 0)
                           for c in cs]])
        assert d.kernel(signs)[0] == 8 * (dx - dv)


def test_validate_dodec_pairs_each_collection_vector_once(space_q3,
                                                          seed_dodec,
                                                          monkeypatch):
    """validate_dodec makes 78 exact pairings, one per entry of the upper
    triangle of the 12 x 12 Gram, and no QuadraticSpace.inner call (the
    library has no vector projection: each face's Gram follows from the
    collection's)."""
    from ngontheta import ngon, qspace
    calls = {"pair": 0, "inner": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    pair = counted("pair", qspace._dot)
    for mod in (qspace, ngon):
        monkeypatch.setattr(mod, "_dot", pair)
    monkeypatch.setattr(QuadraticSpace, "inner",
                        counted("inner", QuadraticSpace.inner))
    d = validate_dodec(space_q3, seed_dodec.cs)
    assert calls == {"pair": 78, "inner": 0}
    # the kernels reuse the core: 12 pairings per point, none for D(v)
    dodec_P_kernel(d, (1, 0, 0, 0))
    assert calls == {"pair": 90, "inner": 0}


def test_dodec_kernel_command_pairs_x_once(capsys, monkeypatch):
    """`dodec kernel` forms the pairings (x, C_i) once: P reads their
    signs, and D = P + D(v) reuses the cached 8 D(v)."""
    from ngontheta import ngon
    calls = []
    pairings = ngon._Walls.pairings

    def counted(self, x):
        calls.append(x)
        return pairings(self, x)

    monkeypatch.setattr(ngon._Walls, "pairings", counted)
    data = str(EXAMPLES / "dodec_seed.json")
    assert main(["dodec", "kernel", "--data", data, "--x", "1,0,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["P"] != "0"
    assert len(calls) == 1


# |E - E_ref| allowed against the recorded dodec_E references, as in the
# benchmark's own check
E_REF_TOL = 1e-9


def _unscreened_e_kernel(dodec, x):
    """dodec_E_kernel with no octant screen: all 8 octants of each of the 20
    vertex frames, each through cone_mass_3d at amp 0 and weighed by its
    sign product, plus the face E1 terms."""
    from scipy.special import erf
    from ngontheta.errfn import SQPI, cone_mass_3d
    a, m, normals = dodec.frames
    sig = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    b = (sig[None, :, :, None] * a[:, None]).reshape(-1, 3, 3)
    xf = np.array([float(v) for v in x]) * math.sqrt(2.0)
    u = np.repeat(m @ xf, 8, axis=0)
    mass = cone_mass_3d(u, b, np.zeros(len(u)), np.arange(len(u)))
    return float((np.tile(np.prod(sig, axis=1), len(a)) @ mass
                  + erf(SQPI * (normals @ xf)) @ dodec.face_w) / 8.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_e_kernel_matches_unscreened_sum(seed_dodec):
    # E3's octant screen (cone_dist2, the distance to the nearest ray, not
    # to the cone) drops octants of real mass: on the 40 benchmark refs the
    # kernel is up to 0.074 off the sum that keeps every octant
    refs = json.loads((REPO / "perfbench" / "refs" / "dodec_E.json")
                      .read_text())
    assert len(refs) == 40
    err = max(abs(dodec_E_kernel(seed_dodec, x)
                  - _unscreened_e_kernel(seed_dodec, x))
              for x in (tuple(Fraction(v) for v in key.split(","))
                        for key in refs))
    assert err <= 1e-12


def test_perfbench_refs_reproduce(capsys, seed_dodec):
    """Every `dodec series` reference that the benchmark compares byte for
    byte (16 cosets, nmax 2..8) and every recorded dodec_E_kernel value,
    re-run on the seed: a kappa moved by one ulp can move B, and with it
    the flags."""
    refs = REPO / "perfbench" / "refs"
    data = str(EXAMPLES / "dodec_seed.json")
    series = json.loads((refs / "dodec_series.json").read_text())
    assert len(series) == 112
    for key, want in series.items():
        mu, nmax = key.split("|")
        assert main(["dodec", "series", "--data", data, "--mu", mu,
                     "--nmax", nmax]) == 0
        assert capsys.readouterr().out == want, key
    values = json.loads((refs / "dodec_E.json").read_text())
    assert len(values) == 40
    for key, want in values.items():
        x = tuple(Fraction(v) for v in key.split(","))
        assert abs(dodec_E_kernel(seed_dodec, x) - want) <= E_REF_TOL, key
