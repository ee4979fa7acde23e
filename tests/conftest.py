import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

sys.path.insert(0, str(REPO / "src"))

from ngontheta.qspace import QuadraticSpace  # noqa: E402


@pytest.fixture(scope="session")
def space_abc():
    from ngontheta.sig12 import SPACE_ABC
    return SPACE_ABC


@pytest.fixture(scope="session")
def space_e():
    from ngontheta.sig12 import SPACE_E
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
    from ngontheta.ngon import validate
    from ngontheta.sig12 import SPACE_E
    return validate(SPACE_E, ((1, -2, -1), (13, 0, -21), (1, 2, -1), (0, 0, 1)))


@pytest.fixture(scope="session")
def seed_dodec(space_q3):
    from ngontheta.dodec import seed_construction, validate_dodec
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


def majorant_float(space, x, z):
    """((x,x)_z, R(x,z)) in floats from the orthonormal basis of the
    NegativePlane z."""
    xf = np.array([float(v) for v in x])
    pairings = z.ortho @ space.gram_f @ xf
    r = float(pairings @ pairings)
    return float(space.inner(x, x)) + 2.0 * r, r


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


def regular_negative_vector_vec(space, cs):
    """The first of C_1, C_1 + C_2/k (k = 2, 3, ...) that is negative with
    every (v, C_j) nonzero."""
    from ngontheta.qspace import vec, vec_add, vec_scale
    cs = tuple(vec(c) for c in cs)
    for k in range(1, 10001):
        v = cs[0] if k == 1 else vec_add(cs[0], vec_scale(Fraction(1, k), cs[1]))
        if space.inner(v, v) < 0 and all(space.inner(v, c) != 0 for c in cs):
            return v
    raise RuntimeError("could not find a regular negative vector")


def projected_tuple(space, cs, cycle, i):
    """R(i) = (P_i C_j)_{j in F(i)}, P_i the projection to C_i^perp."""
    from ngontheta.dodec import DodecValidationError
    if space.inner(cs[i], cs[i]) >= 0:
        raise DodecValidationError(
            [(i, f"(C_{i}, C_{i}) = {space.inner(cs[i], cs[i])} not < 0")])
    return tuple(space.project_perp(cs[j], cs[i]) for j in cycle)


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
        s = _signs_vec(space, regular_negative_vector_vec(space, r), r)
        out.append(-sum(s[l] * s[(l + 1) % 5] for l in range(5)))
    return tuple(out)


def dodec_D_vec(space, cs, face_w, x):
    """D(x) from the signs of (x, C_i), each an exact inner product."""
    from ngontheta.dodec import cycle_table
    s = _signs_vec(space, x, cs)
    trip = sum(s[i] * s[u] * s[v] for i, u, v in cycle_table().vertices)
    return Fraction(trip + sum(w * t for w, t in zip(face_w, s)), 8)
