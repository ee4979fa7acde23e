"""Exact linear algebra for a rational inner product space of signature (p, q).

All sign decisions downstream (kernels, polygon conditions) are made with
exact rational arithmetic on top of this module; floating point appears only
in majorant evaluation and in the orthonormalized bases used by quadrature.
The exact core is integer: `inner` sums over the nonzero Gram numerators,
`int_core` gives collections an integer Gram, NegativePlane Bareiss minors.
"""

from fractions import Fraction
import functools
import math
import operator

import numpy as np

PIVOT_TOL = 1e-12        # smallest squared norm of a Gram-Schmidt pivot


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


def _over_lcm(x):
    """(d, numerators) with x_i = numerators_i / d, d the lcm of the
    denominators of the int or Fraction entries."""
    d = math.lcm(*(c.denominator for c in x))
    return d, [int(c.numerator) * (d // c.denominator) for c in x]


def _dot(a, b):
    """One exact pairing of integer rows."""
    return sum(map(operator.mul, a, b))


def _int_product(x, rows):
    """Exact x @ rows^T of int64 rows x and integer rows r: on int64 when
    the partial-sum bound max(1, max|x|) max|r|_1 < 2^63, else Python ints."""
    bound = max(1, int(np.max(np.abs(x), initial=0))) \
        * max(sum(map(abs, r)) for r in rows)
    dtype = np.int64 if bound < 2 ** 63 else object
    return x.astype(dtype, copy=False) @ np.array(rows, dtype=dtype).T


def _row_norms(x, mat):
    """Exact x_i^T mat x_i of int64 rows x_i, symmetric integer mat: on int64
    when the partial-sum bound max(1, max|x|)^2 sum|mat| < 2^63, else Python
    ints."""
    bound = max(1, int(np.max(np.abs(x), initial=0))) ** 2 \
        * sum(abs(v) for r in mat for v in r)
    dtype = np.int64 if bound < 2 ** 63 else object
    x = x.astype(dtype, copy=False)
    return np.einsum('ij,ij->i', x @ np.array(mat, dtype=dtype), x)


def vec_primitive(x):
    """Scale a nonzero rational vector by a positive rational so the result
    is an integer vector with content 1."""
    _, ints = _over_lcm(x)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(Fraction(c // g) for c in ints)


def _leading_minors(a):
    """Leading principal minors of a square integer matrix by fraction-free
    (Bareiss) elimination without pivoting: after step k the pivot a[k][k]
    is the k+1-th minor.  Stops after the first zero minor."""
    a, n, minors = [list(row) for row in a], len(a), [1]
    for k in range(n):
        minors.append(a[k][k])
        if not a[k][k]:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // minors[-2]
    return minors[1:]


def _adjugate(a):
    """(det a, adj a) of a nonsingular square integer matrix: fraction-free
    (Bareiss) Gauss-Jordan on [a | I] with row swaps ends at [p I | p a^-1],
    p the last pivot, which is det a up to the sign of the swaps."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev, sign = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        m = [r if i == k else [(m[k][k] * v - r[k] * w) // prev
                               for v, w in zip(r, m[k])]
             for i, r in enumerate(m)]
        prev = m[k][k]
    return sign * prev, [[sign * v for v in row[n:]] for row in m]


def _signature(a):
    """Signature (p, q) of a symmetric integer matrix.  Its characteristic
    polynomial, exact over the integers by Faddeev-LeVerrier, has only real
    roots, so Descartes' rule of signs counts the positive and the negative
    eigenvalues exactly.  Raises on a degenerate form."""
    m = len(a)
    coef, mk = [1], [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        mk = [[sum(a[i][l] * mk[l][j] for l in range(m)) + coef[-1] * (i == j)
               for j in range(m)] for i in range(m)]
        coef.append(-sum(a[i][l] * mk[l][i]
                         for i in range(m) for l in range(m)) // k)
    if coef[-1] == 0:
        raise ValueError("degenerate quadratic form")

    def changes(c):
        s = [v > 0 for v in c if v]
        return sum(u != v for u, v in zip(s, s[1:]))

    return changes(coef), changes([(-1) ** k * c for k, c in enumerate(coef)])


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
        # integer core: G = gi / den, and (i, j, gi_ij) over the nonzero gi_ij
        self._den = math.lcm(*(v.denominator for row in g for v in row))
        self._gi = tuple(tuple(int(v * self._den) for v in row) for row in g)
        self._terms = tuple((i, j, v) for i, row in enumerate(self._gi)
                            for j, v in enumerate(row) if v)
        self.sig = _signature(self._gi)
        self.gram_f = np.array([[float(v) for v in row] for row in g])

    def __repr__(self):
        return f"QuadraticSpace(dim={self.dim}, sig={self.sig})"

    def int_core(self, vs):
        """(d, gr, n) of rational vectors v_a = r_a / d_a: gr_a = den G r_a
        and n_ab = r_a . gr_b, so (v_a, v_b) = n_ab / (d_a d_b den) and
        (x, v_a) = (xn . gr_a) / (dx d_a den) for x = xn / dx."""
        if any(len(v) != self.dim for v in vs):
            raise ValueError("dimension mismatch")
        d, rows = zip(*map(_over_lcm, vs)) if vs else ((), ())
        gr = [[sum(map(operator.mul, g, r)) for g in self._gi] for r in rows]
        n = []
        for a, r in enumerate(rows):    # one pairing per entry with a <= b
            n.append([row[a] for row in n] + [_dot(r, g) for g in gr[a:]])
        return d, gr, n

    def inner(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        dx, xn = _over_lcm(x)
        dy, yn = _over_lcm(y)
        return Fraction(sum(g * xn[i] * yn[j] for i, j, g in self._terms),
                        dx * dy * self._den)

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

    Negative definiteness is checked exactly: the leading principal minors
    of the negated span Gram, scaled to integers, must all be positive; the
    cached orthonormalization satisfies (u_i, u_j) = -delta_ij.
    """

    def __init__(self, space, span):
        self.space = space
        self.span = tuple(vec(s) for s in span)
        k = len(self.span)
        minors = _leading_minors([[-v for v in row]
                                  for row in space.int_core(self.span)[2]])
        if any(v <= 0 for v in minors):
            raise DegeneratePlaneError(
                "span Gram matrix is not negative definite")
        # modified Gram-Schmidt w.r.t. the negated form
        gf = space.gram_f
        self._span_f = np.array([[float(c) for c in s] for s in self.span])
        basis = []
        for v in self._span_f:
            for u in basis:
                v = v - (-(v @ gf @ u)) * u
            nrm2 = -(v @ gf @ v)
            if nrm2 < PIVOT_TOL:
                raise DegeneratePlaneError("orthonormalization pivot failure")
            basis.append(v / math.sqrt(nrm2))
        self.ortho = np.array(basis)
        renorm = self.ortho @ gf @ self.ortho.T + np.eye(k)
        if np.max(np.abs(renorm)) > 1e-9:
            raise DegeneratePlaneError("orthonormalized Gram check failed")

    @functools.cached_property
    def frame(self):
        """(a, m): the functional rows a_i[k] = (u_k, c_i) of the spanning
        vectors c_i, so (y, c_i) = t . a_i for y = sum_k t_k u_k, and the map
        m that takes x (as floats) to u = m x, the orthonormal coordinates
        of pr_z(x)."""
        ug = self.ortho @ self.space.gram_f
        return np.array([ug @ c for c in self._span_f]), -ug

    def coords(self, xf):
        """Coordinates of pr_z(x) in the orthonormalized basis (x as floats)."""
        return self.frame[1] @ np.asarray(xf, dtype=float)
