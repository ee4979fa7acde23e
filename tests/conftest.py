import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

sys.path.insert(0, str(REPO / "src"))

from ngontheta.dodec import (DodecValidationError,  # noqa: E402
                             bar, validate_dodec)
from ngontheta.errfn import E_frames  # noqa: E402
from ngontheta.ngon import (NGonValidationError, _Walls,  # noqa: E402
                            _cyclic_w, _gram_violations, _regular_choice,
                            sgn, validate, w_invariant)
from ngontheta.qspace import (QuadraticSpace, _charpoly,  # noqa: E402
                              _over_lcm, rat, vec, vec_primitive)
from ngontheta.sig12 import SPACE_ABC  # noqa: E402


# exact vector arithmetic on tuples of Fractions (no src/ caller needs it)
def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(s, x):
    s = rat(s)
    return tuple(s * a for a in x)


# Gram in the orthogonal e-basis e1 = [1/2, 0, 1/2], e2 = [0, 1, 0],
# e3 = [1/2, 0, -1/2] of the [a,b,c] model
SPACE_E = QuadraticSpace([[2, 0, 0], [0, -2, 0], [0, 0, -2]])


@pytest.fixture(scope="session")
def space_abc():
    return SPACE_ABC


@pytest.fixture(scope="session")
def space_e():
    return SPACE_E


@pytest.fixture(scope="session")
def space_q3():
    return QuadraticSpace([[2, 0, 0, 0], [0, -2, 0, 0],
                           [0, 0, -2, 0], [0, 0, 0, -2]])


@pytest.fixture(scope="session")
def funddom():
    from ngontheta.sig12 import fundamental_ngon
    return fundamental_ngon(2)


@pytest.fixture(scope="session")
def funddom_e():
    """The truncated-fundamental-domain 4-gon in the diagonal basis, scaled
    to integer vectors (kernels are scale-invariant)."""
    return validate(SPACE_E, ((1, -2, -1), (13, 0, -21), (1, 2, -1), (0, 0, 1)))


@pytest.fixture(scope="session")
def seed_dodec(space_q3):
    from ngontheta.dodec import seed_construction
    ts = [Fraction(a + 3, 40) for a in range(12)]
    cs = seed_construction(space_q3,
                           ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                           (1, 0, 0, 0), ts)
    return validate_dodec(space_q3, cs)


def random_negative_abc(rng):
    """Random rational negative vector in the [a,b,c] model."""
    while True:
        a = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if 4 * a * c - b * b < 0:
            return (a, b, c)


# --- exact-arithmetic oracles -----------------------------------------------

def inner_dense(gram, x, y):
    """(x, y) = sum_ij x_i g_ij y_j over all m^2 Gram entries, zeros
    included, in Fraction arithmetic."""
    m = len(gram)
    return sum((Fraction(x[i]) * Fraction(gram[i][j]) * Fraction(y[j])
                for i in range(m) for j in range(m)), Fraction(0))


def inner_sparse(space, x, y):
    """(x, y) as QuadraticSpace.inner summed it before it paired over the
    whole integer Gram: g x_i y_j over the nonzero entries (i, j, g) of
    space._gi, over dx dy space._den."""
    dx, xn = _over_lcm(x)
    dy, yn = _over_lcm(y)
    terms = [(i, j, g) for i, row in enumerate(space._gi)
             for j, g in enumerate(row) if g]
    return Fraction(sum(g * xn[i] * yn[j] for i, j, g in terms),
                    dx * dy * space._den)


def mat_inv(rows):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def mat_det(rows):
    """Exact determinant of a square matrix of Fractions."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def negative_definite_vec(gram, span):
    """The rational oracle of negative definiteness: every leading principal
    minor of the negated span Gram, by inner_dense and mat_det, is > 0."""
    gm = [[inner_dense(gram, a, b) for b in span] for a in span]
    return all(mat_det([[-gm[i][j] for j in range(sz)] for i in range(sz)]) > 0
               for sz in range(1, len(span) + 1))


# --- majorant oracles -------------------------------------------------------

def _solve_exact(a_rows, rhs):
    """Gauss-Jordan solution of a square Fraction system."""
    n = len(a_rows)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
         for i, row in enumerate(a_rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def r_exact(space, x, span):
    """R(x,z) = -(pr_z x, pr_z x) as an exact rational, for a plane given
    by an exact spanning basis."""
    k = len(span)
    gm = [[space.inner(a, b) for b in span] for a in span]
    rhs = [space.inner(x, a) for a in span]
    coeffs = _solve_exact(gm, rhs)
    pr = tuple(sum(coeffs[i] * span[i][d] for i in range(k))
               for d in range(space.dim))
    return -space.inner(pr, pr)


def majorant_exact(space, x, span):
    """((x,x)_z, R(x,z)) as exact rationals."""
    r = r_exact(space, x, span)
    return space.inner(x, x) + 2 * r, r


def majorant_dense(gram, span):
    """M_z = G - 2 G S (S^T G S)^{-1} S^T G of the plane spanned by span,
    in Fraction arithmetic (mat_inv)."""
    g = [[Fraction(v) for v in row] for row in gram]
    m, q = len(g), len(span)
    gs = [[sum(g[i][k] * Fraction(s[k]) for k in range(m)) for s in span]
          for i in range(m)]
    ni = mat_inv([[sum(Fraction(a[k]) * gs[k][b] for k in range(m))
                   for b in range(q)] for a in span])
    return [[g[i][j] - 2 * sum(gs[i][a] * ni[a][b] * gs[j][b]
                               for a in range(q) for b in range(q))
             for j in range(m)] for i in range(m)]


def majorant_matrix(space, span):
    """The Fraction majorant that NegativePlane.majorant replaced: M = G -
    2 (G S) (S^T G S)^{-1} (G S)^T for the span S, one Fraction per entry
    (det(n) gi - 2 g adj(n) g^T) / (den det(n)) from the span's int_core
    rows g and integer Gram n."""
    _, g, n = space.int_core([vec(v) for v in span])
    c, adj = _charpoly(n)
    det, k, m = (-1) ** len(n) * c[-1], len(g), space.dim
    return [[Fraction(det * space._gi[i][j] - 2 * sum(
        g[a][i] * adj[a][b] * g[b][j] for a in range(k) for b in range(k)),
        space._den * det) for j in range(m)] for i in range(m)]


def int_majorant(mat):
    """(mi, dm) of a Fraction matrix as _majorant_leq formed it before
    planes owned their integer majorant: dm the lcm of the entries'
    denominators, mi = mat * dm."""
    dm = math.lcm(*(v.denominator for row in mat for v in row))
    return [[int(v * dm) for v in row] for row in mat], dm


def psd_by_minors(mat):
    """Positive semidefiniteness of a symmetric Fraction matrix: every
    principal minor, not only the leading ones, is >= 0."""
    m = len(mat)
    return all(mat_det([[mat[i][j] for j in idx] for i in idx]) >= 0
               for r in range(1, m + 1)
               for idx in itertools.combinations(range(m), r))


def window_proof_oracle(walls, z0, b, nmax):
    """The m x m form of the series window proof: b M_j - 2 nmax M_0 is
    positive semidefinite at every vertex plane z_j of the walls, so
    lambda_max(M_0, M_j) <= b / (2 nmax) there."""
    gram = walls.space.gram
    m0 = majorant_dense(gram, z0.span)
    return all(psd_by_minors([[b * x - 2 * nmax * y for x, y in zip(rj, r0)]
                              for rj, r0 in zip(majorant_dense(
                                  gram, [walls.cs[a] for a in t]), m0)])
               for t in walls.vertices.tolist())


def guard_band_hits(walls, coset, window, nmax):
    """The guard-band oracle: the x of the coset with B < (x,x)_{z0} <= 2B,
    0 < Q(x) <= nmax and a nonzero kernel, as Fraction rows.  A window that
    holds every kernel-supported x leaves it empty."""
    from ngontheta.lattice import EnumWindow, enumerate_coset
    wide = enumerate_coset(coset, EnumWindow(window.z0, 2 * window.B,
                                             window.kappa), qmax=nmax)
    num = walls.kernel(walls.sign_matrix(wide.xnum))
    m0 = majorant_dense(walls.space.gram, window.z0.span)
    hits = []
    for row, k, xx in zip(wide.xnum.tolist(), num.tolist(),
                          wide.xx_num.tolist()):
        if k == 0 or xx <= 0:
            continue
        x = [Fraction(v, wide.dmu) for v in row]
        if sum(x[i] * m0[i][j] * x[j] for i in range(len(x))
               for j in range(len(x))) > window.B:
            hits.append(x)
    return hits


def window_at_safety(window, safety):
    """The window at another safety factor: kappa and B scaled by
    safety / SAFETY, B rounded up on its grid of 1/64."""
    from ngontheta.lattice import SAFETY, EnumWindow
    scale = Fraction(safety) / Fraction(SAFETY)
    return EnumWindow(window.z0, Fraction(math.ceil(window.B * 64 * scale),
                                          64), window.kappa * float(scale))


def batch_ks(batch):
    """The integer rows k = x - mu of a CosetRows, mu reduced into [0, 1)."""
    return (batch.xnum - batch.munum[batch.coset]) // batch.dmu


def majorant_float(space, x, z):
    """((x,x)_z, R(x,z)) in floats from the orthonormal basis of the
    NegativePlane z."""
    xf = np.array([float(v) for v in x])
    pairings = z.ortho @ space.gram_f @ xf
    r = float(pairings @ pairings)
    return float(space.inner(x, x)) + 2.0 * r, r


def weil_sanity_dense(space, weil):
    """(unitarity defect, S^2-composition defect) as lattice.weil_sanity
    formed them with dense helper matrices: S S* - eye(d) and S S - phase^2
    times a float permutation matrix."""
    reps, _, s, neg = weil
    d = len(reps)
    uni = float(np.max(np.abs(s @ s.conj().T - np.eye(d))))
    perm = np.zeros((d, d))
    perm[neg, np.arange(d)] = 1.0
    p, q = space.sig
    ph2 = cmath.exp(2j * math.pi * (q - p) / 4.0)
    return uni, float(np.max(np.abs(s @ s - ph2 * perm)))


# --- wall-collection oracles ------------------------------------------------
# The vector-based code that the integer-Gram path of ngon and dodec
# replaced: projected vectors, one QuadraticSpace.inner call per pairing.

def check_conditions_vec(space, cs):
    """The violated (j, condition) of the 3N N-gon inequalities, each
    pairing an exact QuadraticSpace.inner."""
    from ngontheta.ngon import Violation
    n = len(cs)
    out = []
    cc = [space.inner(c, c) for c in cs]
    cross = [space.inner(cs[j], cs[(j + 1) % n]) for j in range(n)]
    for j in range(n):
        if not cc[j] < 0:
            out.append(Violation(j + 1, 1, f"(C_{j+1},C_{j+1}) = {cc[j]} not < 0"))
    for j in range(n):
        g = cc[j] * cc[(j + 1) % n] - cross[j] ** 2
        if not g > 0:
            out.append(Violation(j + 1, 2, f"plane Gram determinant {g} not > 0"))
    for j in range(n):
        jm, jp = (j - 1) % n, (j + 1) % n
        t = cc[j] * space.inner(cs[jm], cs[jp]) - cross[jm] * cross[j]
        if not t < 0:
            out.append(Violation(j + 1, 3, f"turning quantity {t} not < 0"))
    return out


def outcome(f, *args):
    """f(*args), or the message of the RuntimeError it raises."""
    try:
        return f(*args)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def regular_negative_vector_vec(space, cs, q=None):
    """The first v = sum_{i<q} h^i C_i (q = space.sig[1] unless given) at
    h = 0, 1/2, 1/3, ..., among the first N(q-1)+1, with every (v, C_j)
    nonzero."""
    cs = tuple(vec(c) for c in cs)
    q = space.sig[1] if q is None else q
    for k in range(1, len(cs) * (q - 1) + 2):
        h = Fraction(int(k > 1), k)
        v = cs[0]
        for i in range(1, q):
            v = vec_add(v, vec_scale(h ** i, cs[i]))
        if all(space.inner(v, c) != 0 for c in cs):
            return v
    raise RuntimeError("could not find a regular negative vector")


def regular_choice_signs(space, cs, q=None):
    """The signs of (v, C_j) at the default regular negative vector v that
    _regular_choice picks on the collection cs, q = space.sig[1] unless
    given."""
    walls = _Walls(space, tuple(vec(c) for c in cs))
    return _regular_choice(walls._gram, walls._d,
                           space.sig[1] if q is None else q)[1]


def regular_signs_vec(space, cs, q=None):
    """The signs of (v, C_j) at v = regular_negative_vector_vec."""
    return _signs_vec(space, regular_negative_vector_vec(space, cs, q), cs)


def project_perp(space, x, c):
    """x minus its projection on the non-null vector c, exactly."""
    cc = space.inner(c, c)
    if cc == 0:
        raise ValueError("cannot project along a null vector")
    f = space.inner(x, c) / cc
    return tuple(a - f * b for a, b in zip(x, c))


def projected_tuple(space, cs, cycle, i):
    """R(i) = (P_i C_j)_{j in F(i)}, P_i the projection to C_i^perp."""
    if space.inner(cs[i], cs[i]) >= 0:
        raise DodecValidationError(
            [(i, f"(C_{i}, C_{i}) = {space.inner(cs[i], cs[i])} not < 0")])
    return tuple(project_perp(space, cs[j], cs[i]) for j in cycle)


def check_dodec_conditions_vec(space, cs):
    """All violated (face, Violation) pairs on the projected tuples."""
    from ngontheta.dodec import cycle_table
    comb = cycle_table()
    projected = [projected_tuple(space, cs, comb.cycles[i], i)
                 for i in range(12)]
    return [(i, v) for i, r in enumerate(projected)
            for v in check_conditions_vec(space, r)]


def _signs_vec(space, v, cs):
    return [(space.inner(v, c) > 0) - (space.inner(v, c) < 0) for c in cs]


def face_w_vec(space, cs):
    """w(R(i)) of each face from the regular negative vector of R(i)."""
    from ngontheta.dodec import cycle_table
    comb = cycle_table()
    out = []
    for i in range(12):
        r = projected_tuple(space, cs, comb.cycles[i], i)
        s = _signs_vec(space, regular_negative_vector_vec(space, r, q=2), r)
        out.append(-sum(s[l] * s[(l + 1) % 5] for l in range(5)))
    return tuple(out)


def _dodec_level(face_w, s):
    """8 D from the signs s of (x, C_i): the vertex triple products plus
    the face-weighted signs."""
    from ngontheta.dodec import cycle_table
    trip = sum(s[i] * s[u] * s[v] for i, u, v in cycle_table().vertices)
    return trip + sum(w * t for w, t in zip(face_w, s))


def dodec_D_vec(space, cs, face_w, x):
    """D(x) from the signs of (x, C_i), each an exact inner product."""
    return Fraction(_dodec_level(face_w, _signs_vec(space, x, cs)), 8)


def dodec_P_rows(space, cs, face_w):
    """x -> 8 P(x) = 8 (D(x) - D(v)) for integer rows x, each a positive
    multiple of its vector, v the regular_negative_vector_vec of cs: the
    pairings (x, C_i) are exact integer dot products with the rows den G
    C_i, formed here from space.gram and the C_i, and D is dodec_D_vec's
    sum, so no Fraction is built per row."""
    cs = [vec(c) for c in cs]
    rows = [[sum(g * c for g, c in zip(r, v)) for r in space.gram]
            for v in cs]
    den = math.lcm(*(c.denominator for r in rows for c in r))
    rows = [[int(c * den) for c in r] for r in rows]
    lv = 8 * dodec_D_vec(space, cs, face_w,
                         regular_negative_vector_vec(space, cs))

    def eight_p(x):
        return _dodec_level(face_w, [sgn(sum(map(int.__mul__, x, r)))
                                     for r in rows]) - lv
    return eight_p


# --- what the validating constructors raise ---------------------------------

def ngon_violations(space, cs):
    """Every violation that NGonValidationError carries for cs, [] when cs
    is an N-gon; a collection failing the structural checks raises."""
    try:
        validate(space, cs)
    except NGonValidationError as e:
        return e.violations
    return []


def dodec_violations(space, cs):
    """Every (face, Violation) that DodecValidationError carries for cs, []
    when cs is a dodecahedral collection; a collection failing the
    structural checks, or with some (C_i, C_i) >= 0, raises."""
    try:
        validate_dodec(space, cs)
    except DodecValidationError as e:
        if isinstance(e.diagnostics[0][1], str):
            raise
        return e.diagnostics
    return []


# --- the hyperbolic [a,b,c] helpers: the oracle of sig12.recover_ngon -------

def abc_to_e(x):
    a, b, c = vec(x)
    return (a + c, b, a - c)


def e_to_abc(x):
    al, be, ga = vec(x)
    return ((al + ga) / 2, be, (al - ga) / 2)


@dataclass(frozen=True)
class UHPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, 'x', rat(self.x))
        object.__setattr__(self, 'y', rat(self.y))
        if not self.y > 0:
            raise ValueError("upper-half-plane point needs y > 0")

    @property
    def norm2(self):
        return self.x * self.x + self.y * self.y


def point_to_vector(z):
    """X(z) = [1/(2y), -x/y, |z|^2/(2y)], the norm-1 positive vector at z."""
    z = z if isinstance(z, UHPoint) else UHPoint(*z)
    return (1 / (2 * z.y), -z.x / z.y, z.norm2 / (2 * z.y))


def cross(u0, u1):
    """Hyperbolic cross product in [a,b,c] coordinates (orthogonal to both
    factors; X(z1) x X(z2) spans the geodesic through z1, z2 oriented from
    z1 to z2)."""
    a0, b0, c0 = abc_to_e(u0)
    a1, b1, c1 = abc_to_e(u1)
    ce = (b0 * c1 - c0 * b1, a0 * c1 - c0 * a1, -(a0 * b1 - b0 * a1))
    return e_to_abc(ce)


def alpha(z1, z2, z3):
    """Turning invariant at z2: positive for a left turn of the geodesic
    path z1 -> z2 -> z3, negative for a right turn, zero when collinear."""
    zs = [p if isinstance(p, UHPoint) else UHPoint(*p) for p in (z1, z2, z3)]
    x1, x2, x3 = (p.x for p in zs)
    n1, n2, n3 = (p.norm2 for p in zs)
    num = x1 * (n2 - n3) + x2 * (n3 - n1) + x3 * (n1 - n2)
    return num / (2 * zs[0].y * zs[1].y * zs[2].y)


def turning_sign(z1, z2, z3):
    return sgn(alpha(z1, z2, z3))


def _signed_crosses(pts, taus):
    """Primitive C_j = eps_j X(z_{j-1}) x X(z_j), with eps_j the product of
    the turning signs taus before index j."""
    cs = []
    eps = 1
    for j, tau in enumerate(taus):
        y = cross(point_to_vector(pts[j - 1]), point_to_vector(pts[j]))
        cs.append(vec_primitive(tuple(eps * t for t in vec(y))))
        eps *= tau
    return cs


# --- example collections in the [a,b,c] model -------------------------------

def butterfly_collection():
    """Four vectors whose boundary loop is a figure-eight: the normalized
    kernel is +1 on CM points in the upper lobe, -1 in the lower, 0 outside.
    As printed here the third polygon condition fails at j=1 and j=3;
    flipping the sign of the fourth vector repairs both (butterfly_ngon),
    and the same kernel arises as the difference of the two triangles
    (C'1,C'2,C'3) and (-C'3,-C'1,C'4)."""
    c1 = (Fraction(1, 2), Fraction(-3, 2), Fraction(-5, 4))
    c2 = (Fraction(-1, 2), 0, 2)
    c3 = (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 4))
    c4 = (Fraction(-1, 2), 0, Fraction(1, 2))
    return (vec(c1), vec(c2), vec(c3), vec(c4))


def butterfly_ngon():
    """The valid 4-gon carrying the figure-eight kernel: the butterfly
    collection with the fourth vector negated (w = 0, eps/4 = +1 on the
    upper lobe, -1 on the lower, 0 outside)."""
    c1, c2, c3, c4 = butterfly_collection()
    return validate(SPACE_ABC, (c1, c2, c3, tuple(-t for t in c4)))


def dart_collection():
    """A quadrilateral loop with one reversed edge: vertices (-1,1), (1,1),
    (0,3), (0,3/2) traversed with a single right turn at the last vertex.
    The third polygon condition fails exactly at the wrap pair (j=1, j=4),
    and no sign flips repair it; its kernel goes through
    illegal_variant_kernel (value 4 inside the dart, 0 outside, w~ = 2)."""
    pts = [UHPoint(-1, 1), UHPoint(1, 1), UHPoint(0, 3),
           UHPoint(0, Fraction(3, 2))]
    taus = [turning_sign(pts[j - 1], pts[j], pts[(j + 1) % 4])
            for j in range(4)]
    return tuple(_signed_crosses(pts, taus))


def illegal_variant_kernel(space, cs, x, v=None):
    """Kernel for a collection whose only defect is the wrap pair (C_N, C_1):
    condition (3) fails exactly at the two indices touching that pair (j=1
    and j=N; a single violation is impossible, since the third conditions
    2-color the vertex planes around a cycle).  Returns
    (w_tilde, eps_tilde(x), term signs) with, for a negative v (ValueError
    otherwise; None: the default v of _regular_choice),
      w_tilde = sgn(v,C_N)sgn(v,C_1) - sum_{j<N} sgn(v,C_j)sgn(v,C_{j+1})
      eps_tilde(x) = w_tilde - sgn(x,C_N)sgn(x,C_1) + sum_{j<N} sgn(x,C_j)sgn(x,C_{j+1})
    and term_signs[j] the sign (+1 or -1) carried by the smooth pair term
    (C_j, C_{j+1}) in the matching completion.
    """
    walls = _Walls(space, tuple(vec(c) for c in cs))
    n = len(cs)
    bad = _gram_violations(walls._gram, walls._d, space._den)
    badset = [(b.j, b.condition) for b in bad]
    if badset not in ([(n, 3)], [(1, 3), (n, 3)]):
        raise ValueError(
            "expected condition (3) to fail only at the wrap pair (j=1, j=N); "
            "found " + (", ".join(str(b) for b in bad) if bad else "no violations"))
    if v is None:
        sv = _regular_choice(walls._gram, walls._d, 2)[1]
    elif space.inner(vec(v), vec(v)) < 0:
        sv = walls.signs(v)
    else:
        raise ValueError("v must be a negative vector")
    w_tilde = _cyclic_w(sv) + 2 * sv[-1] * sv[0]
    sx = walls.signs(x)
    eps_tilde = w_tilde - _cyclic_w(sx) - 2 * sx[-1] * sx[0]
    term_signs = [1] * (n - 1) + [-1]
    return int(w_tilde), int(eps_tilde), term_signs


def one_sign_term(zs, j):
    """tau_j * sgn(|z_j|^2-|z_{j-1}|^2) * sgn(|z_{j+1}|^2-|z_j|^2): the j-th
    summand of -w for the recovered collection (1-based j)."""
    pts = [p if isinstance(p, UHPoint) else UHPoint(*p) for p in zs]
    n = len(pts)
    i = (j - 1) % n
    tau = turning_sign(pts[(i - 1) % n], pts[i], pts[(i + 1) % n])
    return tau * sgn(pts[i].norm2 - pts[(i - 1) % n].norm2) \
        * sgn(pts[(i + 1) % n].norm2 - pts[i].norm2)


def reduced_forms(n):
    """Reduced positive binary forms [a,b,c] of discriminant b^2-4ac = -n:
    |b| <= a <= c, with b >= 0 if |b| = a or a = c."""
    out = []
    n = int(n)
    bmax = int(math.isqrt(n // 3)) + 1
    for b in range(-bmax, bmax + 1):
        if (b * b + n) % 4:
            continue
        ac = (b * b + n) // 4
        a = max(abs(b), 1)
        while a * a <= ac:
            if a != 0 and ac % a == 0:
                c = ac // a
                if abs(b) <= a <= c:
                    if b < 0 and (abs(b) == a or a == c):
                        a += 1
                        continue
                    out.append((a, b, c))
            a += 1
    return out


def hurwitz_class_number(n):
    """H(n) for n >= 1: the reduced forms of discriminant -n, [a,0,a]
    weighted 1/2, [a,a,a] 1/3, every other form 1 (0 for n = 1, 2 mod 4)."""
    return sum((Fraction(1, 2) if b == 0 and a == c else
                Fraction(1, 3) if a == b == c else Fraction(1))
               for a, b, c in reduced_forms(n))


def zagier_hhat(tau, nterms=80, fmax=12):
    """Zagier's completed class-number series (Zagier 1975; Hirzebruch and
    Zagier 1976) at tau = u + iv:
    H^(tau) = -1/12 + sum_{n>=1} H(n) q^n
              + v^{-1/2} sum_{f in Z} beta(4 pi f^2 v) q^{-f^2},
    beta(x) = e^{-x} (1 - sqrt(pi x) erfcx(sqrt x)) / (8 pi), summed over
    n < nterms and |f| <= fmax.  e^{-x} and |q^{-f^2}| = e^{2 pi f^2 v}
    are combined into e^{-2 pi f^2 v}, which keeps every term finite."""
    from scipy.special import erfcx
    u, v = tau.real, tau.imag
    hol = sum(float(hurwitz_class_number(n)) * cmath.exp(2j * math.pi * n * tau)
              for n in range(1, nterms))
    nonhol = 0.0
    for f in range(-fmax, fmax + 1):
        x = 4.0 * math.pi * f * f * v
        nonhol += (1.0 - math.sqrt(math.pi * x) * erfcx(math.sqrt(x))) \
            / (8.0 * math.pi) * cmath.exp(-2.0 * math.pi * f * f * complex(v, u))
    return -1.0 / 12.0 + hol + nonhol / math.sqrt(v)


# --- the alternating-sign (ABMP) convention ----------------------------------

def abmp_sign(j):
    """Sign s_j = (-1)^{floor((j-1)/2)} of the alternating translation, 1-based."""
    return -1 if ((j - 1) // 2) % 2 else 1


def from_abmp(space, cs_prime):
    """Translate an alternating-convention collection C'_1..C'_N (N even,
    third inequality reversed) into an NGon via C_j = s_j C'_j with
    s = (+,+,-,-,+,+,...)."""
    n = len(cs_prime)
    if n % 2:
        raise ValueError("alternating translation needs even N")
    cs = [vec_scale(abmp_sign(j + 1), vec(c)) for j, c in enumerate(cs_prime)]
    return validate(space, cs)


def to_abmp(ngon):
    """Inverse of from_abmp (the sign pattern is an involution)."""
    return [vec_scale(abmp_sign(j + 1), c) for j, c in enumerate(ngon.cs)]


def abmp_kernel(space, cs_prime, x):
    """w + sum_j s_j s_{j+1} sgn(x,C'_j) sgn(x,C'_{j+1}) evaluated on the
    primed data directly; equals epsilon on the translated collection."""
    ngon = from_abmp(space, cs_prime)
    n = ngon.n
    x = vec(x)
    s = [sgn(space.inner(x, vec(c))) for c in cs_prime]
    acc = 0
    for j in range(n):
        jp = (j + 1) % n
        acc += abmp_sign(j + 1) * abmp_sign(jp + 1) * s[j] * s[jp]
    return w_invariant(ngon) + acc


# --- the dodecahedral adjacency recipe ---------------------------------------

def recipe_step(cycle_i, i, j):
    """Adjacency recipe: rotate F(i) into the form (a, j, b, u, v) and return
    (b, i, a, bar(u), bar(v)), a rotation of F(j)."""
    if j not in cycle_i:
        raise ValueError(f"face {j} is not adjacent to face {i}")
    p = cycle_i.index(j)
    a, _, b, u, v = tuple(cycle_i[(p - 1 + k) % 5] for k in range(5))
    return (b, i, a, bar(u), bar(v))


def cyclic_equal(t1, t2):
    n = len(t1)
    return len(t2) == n and any(
        tuple(t1[(k + r) % n] for k in range(n)) == tuple(t2) for r in range(n))


# --- the dodecahedral sign kernel --------------------------------------------

def dodec_D_kernel(dodec, x):
    """D(x) = 1/8 sum_nu sgn(x;nu) + 1/8 sum_i w(R(i)) sgn((x,C_i)) on the
    cell code: the level of x alone, not P(x) shifted by D(v)."""
    return Fraction(int(dodec.level(dodec.signs(x))), 8)


# --- the smooth N-gon kernel --------------------------------------------------

def j0_value(ngon, x):
    """(1/4) sum_j [E2(C_j, C_{j+1}, x*sqrt(2)) - sgn(x,C_j) sgn(x,C_{j+1})]
    for a regular rational x, all N terms in one E_frames batch on
    ngon.frames."""
    s = ngon.signs(x)
    if 0 in s:
        raise ValueError("x is not regular: (x, C_j) = 0")
    xf = np.array([float(v) for v in vec(x)]) * math.sqrt(2.0)
    a, m, _ = ngon.frames
    prods = np.prod(np.array(s)[ngon.vertices], axis=1)
    return sum(float(e) - int(p)
               for e, p in zip(E_frames(a, m @ xf), prods)) / 4.0


# --- errfn's cone routines, each item its own cone ---------------------------

def per_item(fn, u, *tables):
    """fn(u, *tables, cone) for cone_dist2, cone_mass_2d or cone_mass_3d of
    ngontheta.errfn on items that are each their own cone: tables with one
    row per item (the cone masses' amp among them, a scalar for every
    item), cone = arange(K).  One item, u of shape (q,) and its tables
    without the item axis, goes as a one-item table and gives a float."""
    if np.ndim(u) == 1:
        return float(per_item(fn, np.asarray(u, dtype=float)[None],
                              *(np.asarray(a, dtype=float)[None]
                                for a in tables))[0])
    tables = (np.full(len(u), float(a)) if np.ndim(a) == 0 else a
              for a in tables)
    return fn(u, *tables, np.arange(len(u)))


# --- the Fraction formatter of q-expansions -----------------------------------
# jsonio's series writers as they were when a series held Fraction entries:
# the oracle of the integer writers (each returns its text or dict).

def rat_to_str_fraction(r):
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else \
        f"{r.numerator}/{r.denominator}"


def coeff_to_json(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return rat_to_str_fraction(c)
    return int(c)


def qexpansion_to_json_fraction(qe):
    return {
        "schema_version": 1,
        "mu": [rat_to_str_fraction(t) for t in vec(qe.mu)],
        "nmax": rat_to_str_fraction(qe.nmax),
        "normalized": bool(qe.normalized),
        "flags": [rat_to_str_fraction(n) for n in sorted(qe.flags)],
        "coeffs": {rat_to_str_fraction(n): coeff_to_json(c)
                   for n, c in sorted(qe.entries.items())},
    }


def qexpansion_csv_fraction(qe):
    lines = ["n,c"]
    for n, c in sorted(qe.entries.items()):
        lines.append(f"{rat_to_str_fraction(n)},"
                     f"{rat_to_str_fraction(Fraction(c))}")
    return "\n".join(lines) + "\n"


def plot_data_fraction(qe):
    """Tab-separated (n, c(n)) table for plotting."""
    return "".join(f"{float(n)!r}\t{float(c)!r}\n"
                   for n, c in sorted(qe.entries.items()))
