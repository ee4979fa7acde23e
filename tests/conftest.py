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
