"""Exact linear algebra for a rational inner product space of signature (p, q).

All sign decisions downstream (kernels, polygon conditions) are made with
exact rational arithmetic on top of this module; floating point appears only
in majorant evaluation and in the orthonormalized bases used by quadrature.
The exact core is integer: a space keeps its Gram numerators over their lcm,
`inner` pairs over them, `int_core` gives collections and planes an integer
Gram, and one Faddeev-LeVerrier routine, _charpoly, yields signatures,
determinants and adjugates.  A space and a NegativePlane each run it once,
for their `core`: the space's signature and discriminant group read it, and
the plane's definiteness test, integer `majorant` and window proof.
negative_planes orthonormalizes a batch of planes at once.
"""

from fractions import Fraction
from functools import cached_property
import math
import operator

import numpy as np

PIVOT_TOL = 1e-12        # smallest squared norm of a Gram-Schmidt pivot


def rat(x):
    """Coerce to Fraction. Accepts int, Fraction, and 'p/q' strings."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(coords):
    return tuple(map(rat, coords))


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


def _charpoly(a):
    """(c, adj a) of a symmetric integer matrix a, or of each of a stack
    (..., m, m), by Faddeev-LeVerrier on object arrays of Python ints:
    det(t I - a) = sum_k c_k t^(m-k) and adj a = (-1)^(m+1) M_m, so
    det a = (-1)^m c_m, where M_1 = I, c_k = -tr(a M_k)/k and
    M_{k+1} = a M_k + c_k I; c and adj return as nested lists."""
    a = np.array(a, dtype=object)
    m, eye = a.shape[-1], np.eye(a.shape[-1], dtype=object)
    c, mk, am = [np.ones(a.shape[:-2] + (1,), dtype=object)], eye, a
    for k in range(1, m + 1):
        c.append(-am.diagonal(0, -2, -1).sum(-1, keepdims=True) // k)
        if k < m:
            mk = am + c[-1][..., None] * eye
            am = a @ mk
    return np.concatenate(c, -1).tolist(), ((-1) ** (m + 1) * mk).tolist()


def _signature(coef):
    """Signature (p, q) of a symmetric integer matrix from its _charpoly
    coefficients.  Its characteristic polynomial has only real roots, so
    Descartes' rule of signs counts the positive and the negative
    eigenvalues exactly.  Raises on a degenerate form."""
    if coef[-1] == 0:
        raise ValueError("degenerate quadratic form")

    def changes(c):
        s = [v > 0 for v in c if v]
        return sum(u != v for u, v in zip(s, s[1:]))

    return changes(coef), changes([(-1) ** k * c for k, c in enumerate(coef)])


class QuadraticSpace:
    """Rational symmetric bilinear form (x,y) = x^T G y with Q(x) = (x,x)/2.

    The Gram matrix carries the factor-of-2 convention: (x,x) = 2 Q(x).
    G = _gi / _den, and core = (c, det, adj) of _gi from one _charpoly.
    """

    def __init__(self, gram):
        g = tuple(tuple(map(rat, row)) for row in gram)
        m = len(g)
        if any(len(row) != m for row in g):
            raise ValueError("gram matrix must be square")
        self.gram = g
        self.dim = m
        self._den, gi = _over_lcm([v for row in g for v in row])
        self._gi = tuple(tuple(gi[i * m:i * m + m]) for i in range(m))
        if any(r != c for r, c in zip(self._gi, zip(*self._gi))):
            raise ValueError("gram matrix must be symmetric")
        c, adj = _charpoly(self._gi)
        self.core = (c, (-1) ** m * c[-1], adj)
        self.sig = _signature(c)
        self.gram_f = np.array([[v / self._den for v in r] for r in self._gi])

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
        return Fraction(_dot(xn, [_dot(r, yn) for r in self._gi]),
                        dx * dy * self._den)

    def q(self, x):
        return self.inner(x, x) / 2

    def unit_negative(self, c):
        cc = self.inner(c, c)
        if cc >= 0:
            raise ValueError("unit_negative requires a negative vector")
        cf = np.array([float(v) for v in c])
        return cf / math.sqrt(-float(cc))


class DegeneratePlaneError(ValueError):
    pass


class NegativePlane:
    """Oriented negative q-plane given by an ordered exact spanning basis:
    the one-plane batch of negative_planes.  Negative definiteness is
    decided exactly first: the span's int_core Gram, a positive diagonal
    congruence of its Gram, must have every `core` coefficient > 0 (its
    roots are real, so all are negative); `ortho` satisfies (u_i, u_j) =
    -delta_ij.  `core` and `majorant` are cached on first use."""

    def __init__(self, space, span):
        vars(self).update(space=space, span=tuple(vec(s) for s in span))
        if not all(c > 0 for c in self.core[1]):
            raise DegeneratePlaneError(
                "span Gram matrix is not negative definite")
        vars(self).update(vars(
            negative_planes(space, self.span, [range(len(self.span))])[0]))

    @cached_property
    def core(self):
        """(g, c, det n, adj n): the span's int_core rows g, and the
        _charpoly coefficients c and adjugate of its integer Gram n."""
        _, g, n = self.space.int_core(self.span)
        c, adj = _charpoly(n)
        return g, c, (-1) ** len(n) * c[-1], adj

    @cached_property
    def majorant(self):
        """(mi, dm): M = G - 2 (G S) (S^T G S)^{-1} (G S)^T, (x,x)_z = x^T M x
        for the span S, as integers mi over dm > 0: (det(n) gi - 2 g^T
        adj(n) g) / (den det(n)) from `core`, over the gcd of all of them."""
        g, _, det, adj = self.core
        g = np.array(g, dtype=object)
        mi = det * np.array(self.space._gi, dtype=object) \
            - 2 * g.T @ np.array(adj, dtype=object) @ g
        dm = self.space._den * det      # det n has the sign (-1)^k, k x k
        h = (-1) ** len(g) * math.gcd(dm, *mi.flat)
        return (mi // h).tolist(), dm // h


def negative_planes(space, cs, tuples):
    """The NegativePlanes spanned by cs[t] for V index tuples t of one length
    q, in one pass; cs are exact vectors.  Each span must be negative
    definite, which the caller has proved: NegativePlane decides it exactly,
    and validation proves it for a cell's vertex planes.  An N-gon's
    conditions (1) and (2) make span(C_j, C_{j+1}) negative definite.  A
    dodecahedral vertex (i, u, v) is listed from face i's cycle, where
    (C_i, C_i) < 0 and face i's conditions (1) and (2) on P_i C_u, P_i C_v
    (P_i the projection to C_i^perp) make span(C_i, C_u, C_v) the
    orthogonal sum of the negative definite span(C_i) and
    span(P_i C_u, P_i C_v).  Modified Gram-Schmidt w.r.t. the negated form,
    the pivot and renorm checks and the frames run on all V planes at once;
    each stacked product has one plane's shapes, so a plane's floats do not
    depend on its batch.  A plane's frame (a, m) holds the rows a_i[k] =
    (u_k, c_i), so (y, c_i) = t . a_i for y = sum_k t_k u_k, and the map m
    taking x (as floats) to the orthonormal coordinates u = m x of pr_z(x)."""
    tuples = [tuple(t) for t in tuples]
    gf = space.gram_f
    sf = np.array([[float(c) for c in v] for v in cs])[np.array(tuples, int)]
    basis = []
    for k in range(sf.shape[1]):    # rows (V, 1, dim): one plane's gemv, dot
        v = sf[:, k:k + 1]
        for u in basis:
            v = v - (-(v @ gf @ u.transpose(0, 2, 1))) * u
        nrm2 = -(v @ gf @ v.transpose(0, 2, 1))
        if np.any(nrm2 < PIVOT_TOL):
            raise DegeneratePlaneError("orthonormalization pivot failure")
        basis.append(v / np.sqrt(nrm2))
    ortho = np.concatenate(basis, axis=1)
    renorm = ortho @ gf @ ortho.transpose(0, 2, 1) + np.eye(len(basis))
    if np.any(np.max(np.abs(renorm), axis=(1, 2)) > 1e-9):
        raise DegeneratePlaneError("orthonormalized Gram check failed")
    ug = ortho @ gf
    a = (ug[:, None] @ sf[..., None])[..., 0]
    planes = tuple(object.__new__(NegativePlane) for _ in tuples)
    for p, t, o, fa, fm in zip(planes, tuples, ortho, a, -ug):
        vars(p).update(space=space, span=tuple(cs[i] for i in t), ortho=o,
                       frame=(fa, fm))
    return planes
