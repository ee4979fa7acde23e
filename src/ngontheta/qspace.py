"""Exact linear algebra for a rational inner product space of signature (p, q).

All sign decisions downstream (kernels, polygon conditions) are made with
exact rational arithmetic on top of this module; floating point appears only
in majorant evaluation and in the orthonormalized bases used by quadrature.
"""

from fractions import Fraction
from dataclasses import dataclass
import math

import numpy as np


def rat(x):
    """Coerce to Fraction. Accepts int, Fraction, and 'p/q' strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def vec(coords):
    return tuple(rat(c) for c in coords)


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(s, x):
    s = rat(s)
    return tuple(s * a for a in x)


def vec_primitive(x):
    """Scale a nonzero rational vector by a positive rational so the result
    is an integer vector with content 1."""
    den = math.lcm(*(c.denominator for c in x))
    ints = [int(c * den) for c in x]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(Fraction(c // g) for c in ints)


def mat_inv(rows):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan)."""
    n = len(rows)
    a = [[rat(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
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
    a = [[rat(v) for v in row] for row in rows]
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


def _signature(gram):
    """Signature (p, q) of a symmetric rational matrix via congruence
    diagonalization. Raises on a degenerate form."""
    m = len(gram)
    a = [[rat(v) for v in row] for row in gram]

    def add_row_col(i, j, f):
        # congruence move: row_i += f*row_j, then col_i += f*col_j
        a[i] = [v + f * w for v, w in zip(a[i], a[j])]
        for r in range(m):
            a[r][i] = a[r][i] + f * a[r][j]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    p = q = 0
    for k in range(m):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, m) if a[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                off = next((j for j in range(k + 1, m) if a[k][j] != 0), None)
                if off is None:
                    raise ValueError("degenerate quadratic form")
                add_row_col(k, off, Fraction(1))
        d = a[k][k]
        for i in range(k + 1, m):
            if a[i][k] != 0:
                add_row_col(i, k, -a[i][k] / d)
        if d > 0:
            p += 1
        else:
            q += 1
    return (p, q)


@dataclass(frozen=True)
class FloatTolerance:
    abs_eps: float = 1e-12

    def __post_init__(self):
        if not self.abs_eps > 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = FloatTolerance()


class QuadraticSpace:
    """Rational symmetric bilinear form (x,y) = x^T G y with Q(x) = (x,x)/2.

    The Gram matrix carries the factor-of-2 convention: (x,x) = 2 Q(x).
    """

    def __init__(self, gram):
        g = tuple(tuple(rat(v) for v in row) for row in gram)
        m = len(g)
        if any(len(row) != m for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(m):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        self.gram = g
        self.dim = m
        self.sig = _signature(g)
        self._gram_f = np.array([[float(v) for v in row] for row in g])

    @property
    def gram_f(self):
        return self._gram_f

    def __repr__(self):
        return f"QuadraticSpace(dim={self.dim}, sig={self.sig})"

    def inner(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        return sum(x[i] * self.gram[i][j] * y[j]
                   for i in range(self.dim) for j in range(self.dim))

    def q(self, x):
        return self.inner(x, x) / 2

    def project_perp(self, x, c):
        cc = self.inner(c, c)
        if cc == 0:
            raise ValueError("cannot project along a null vector")
        f = self.inner(x, c) / cc
        return tuple(a - f * b for a, b in zip(x, c))

    def unit_negative(self, c):
        cc = self.inner(c, c)
        if cc >= 0:
            raise ValueError("unit_negative requires a negative vector")
        cf = np.array([float(v) for v in c])
        return cf / math.sqrt(-float(cc))


class DegeneratePlaneError(ValueError):
    pass


class NegativePlane:
    """Oriented negative q-plane given by an ordered exact spanning basis.

    Negative definiteness of the span Gram matrix is checked exactly
    (leading principal minors of the negated form must all be positive);
    the cached orthonormalization satisfies (u_i, u_j) = -delta_ij.
    """

    def __init__(self, space, span, tol=DEFAULT_TOL):
        self.space = space
        self.span = tuple(vec(s) for s in span)
        k = len(self.span)
        gm = [[space.inner(a, b) for b in self.span] for a in self.span]
        # leading principal minors of -Gram must be positive
        for sz in range(1, k + 1):
            minor = mat_det([[-gm[i][j] for j in range(sz)] for i in range(sz)])
            if minor <= 0:
                raise DegeneratePlaneError(
                    "span Gram matrix is not negative definite")
        # modified Gram-Schmidt w.r.t. the negated form
        gf = space.gram_f
        basis = []
        for s in self.span:
            v = np.array([float(c) for c in s])
            for u in basis:
                v = v - (-(v @ gf @ u)) * u
            nrm2 = -(v @ gf @ v)
            if nrm2 < tol.abs_eps:
                raise DegeneratePlaneError("orthonormalization pivot failure")
            basis.append(v / math.sqrt(nrm2))
        self.ortho = np.array(basis)
        renorm = self.ortho @ gf @ self.ortho.T + np.eye(k)
        if np.max(np.abs(renorm)) > 1e-9:
            raise DegeneratePlaneError("orthonormalized Gram check failed")

    @property
    def q(self):
        return len(self.span)

    def coords(self, xf):
        """Coordinates of pr_z(x) in the orthonormalized basis (x as floats)."""
        return -(self.ortho @ self.space.gram_f @ np.asarray(xf, dtype=float))
