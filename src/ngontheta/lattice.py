"""Lattice coset enumeration under majorant ellipsoids, holomorphic
q-expansions, numerical evaluation of the non-holomorphic completion, and
finite-Weil-representation modularity checks.

A series window is proved: a comparability constant kappa gives the bound
(x,x)_{z0} <= kappa * (x,x) for every x whose kernel value can be nonzero:
such x satisfy (x,x) = (x,x)_{z*} for some plane z* on the wall surface, so
kappa only has to bound lambda_max(M_{z0}, M_z) over that surface, whose
log is the sup-norm Finsler distance from z0 to z on the symmetric space of
majorants, convex along geodesics (Bhatia, Positive Definite Matrices,
ch. 6).  Every edge of the surface is a geodesic segment between two vertex
planes, so the maximum is at a vertex plane.  certify_window estimates it
there in floating point, times SAFETY, giving B = 2 nmax kappa; every
series proves exactly that B/(2 nmax) bounds it at each vertex plane
(_prove_window), or raises CertificationError (CLI exit code 3).  N-gons
and dodecahedra share this path: their vertex tables give the vertex planes
and sign kernels.  Series take the first vertex plane as base plane,
completions minimax_plane, whose lower kappa shrinks their windows (there B
is a truncation); the proof and the enumeration read the base plane's
cached exact data, NegativePlane.core and .majorant.  enumerate_cosets
returns one row batch (CosetRows) of any number of cosets, enumerate_coset
that of one; the signs of (x, C_j) come from the wall collection's
sign_matrix on its integer rows.  A series batch holds only the rows with
0 <= Q(x) <= nmax and a nonzero kernel or a zero sign, the rows a series
can use; a completion batch holds the whole window.

Completions have one driver, _completed: one batch of cosets, evaluated
at every distinct Im tau in one pass of the kernel (_completion_terms),
which completion_eval (one coset, one tau) and modularity_check (a coset of
each +-mu pair at tau, tau + 1 and -1/tau) each call once.  The kernel
returns each window row's term at its final weight, kernel(x) e^{-2 pi v
Q(x)}, so one tolerance RHO_LOG_TOL screens what each term adds to the sum:
whole rows by the proved bound |kernel| <= |w| + N, single wall terms by
their bound 2 e^{-2 pi v Q - pi tau_k^2}, and single rho cone masses by
their distance from the Gaussian centre; one cone_sum call per run of
EVAL_ROWS (row, Im tau) items bounds the temporaries.  A cell states
whether its kernel is even in x (walls.even, true for every N-gon): then
series and completions take one x of each +-x pair (mult 2), and
modularity_check one coset of each +-mu pair.
"""

import math
import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .errfn import cone_sum
from .qspace import (NegativePlane, _charpoly, _dot, _nonzero_2d, _over_lcm,
                     _row_norms, rat, vec)

AMP_CAP = 600.0          # exponent cap keeping corrupted kernels finite
RHO_LOG_TOL = -38.0      # skip completion terms below e^{RHO_LOG_TOL}
K_MAX = 2.0 ** 53        # |k_i| beyond it: floats skip integers, int64 nears
ROWS_MAX = 10 ** 7       # rows one enumeration level may hold
EVAL_ROWS = 2 ** 17      # (row, Im tau) items one kernel run may hold
DISC_MAX = 4096          # |L'/L| the dense Weil matrices may have
SAFETY = 1.5             # window_from_planes' factor on the float kappa
BASE_STEPS = 30          # Badoiu-Clarkson steps of minimax_plane


class CertificationError(RuntimeError):
    pass


class LatticeCoset:
    """Integral lattice Z^m with Gram matrix from `space`, coset mu in L∨/L."""

    def __init__(self, space, mu=None):
        self.space = space
        m = space.dim
        if space._den != 1:
            raise ValueError("lattice Gram matrix must be integral")
        self.mu = vec(mu) if mu is not None else vec([0] * m)
        d, num = _over_lcm(self.mu)     # mu in L∨ iff d divides G num
        if len(num) != m:
            raise ValueError("dimension mismatch")
        if any(_dot(row, num) % d for row in space._gi):
            raise ValueError("mu is not in the dual lattice")


def disc_group(space):
    """Sorted coset representatives of L∨/L, each with entries in [0,1).
    With d = |det G| the numerators d*mu mod d form the closure of 0 under
    adding the m integer columns of d*G^{-1}, so memory grows like d*m;
    d above DISC_MAX is refused before any set is built."""
    if space._den != 1:
        raise ValueError("lattice Gram matrix must be integral")
    _, det, adj = space.core
    d = abs(det)                    # d G^{-1} = sign(det) adj, space.core
    if d > DISC_MAX:
        raise ValueError(f"discriminant group too large: |det G| = {d}, "
                         f"more than {DISC_MAX}")
    gens = [tuple(v * (d // det) % d for v in col) for col in zip(*adj)]
    seen = {(0,) * space.dim}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    # one denominator d: the integer rows sort as their Fraction rows
    frac = [Fraction(v, d) for v in range(d)]
    reps = [tuple(map(frac.__getitem__, row)) for row in sorted(seen)]
    assert len(reps) == d, "dual group size must equal |det|"
    return reps


@dataclass
class EnumWindow:
    z0: NegativePlane
    B: Fraction
    kappa: float


def _majorants(planes):
    """Float matrices of (x,x)_z of the planes, stacked, from their centre
    maps m: G + 2 m^T m, one batched product."""
    m = np.array([p.frame[1] for p in planes])
    return planes[0].space.gram_f + 2.0 * m.transpose(0, 2, 1) @ m


def _kappas(m0, mats):
    """lambda_max(M_0, M_j) of float majorants, M_j stacked: 1 over the least
    eigenvalue of L^{-1} M_j L^{-T}, M_0 = L L^T (one batched eigvalsh)."""
    li = np.linalg.inv(np.linalg.cholesky(m0))
    return 1.0 / np.linalg.eigvalsh(li @ mats @ li.T, UPLO="U")[:, 0]


def minimax_plane(planes):
    """A base plane z0 with small kappa = max_j lambda_max(M_{z0}, M_{z_j})
    over negative q-planes z_j: BASE_STEPS Badoiu-Clarkson steps on their
    majorants (Arnaudon-Nielsen 2013), then the centre's negative eigenspace
    in reduced echelon form, rounded to denominators <= 64.  The first
    plane is kept if that plane is degenerate or its kappa is not lower."""
    space, q = planes[0].space, len(planes[0].span)
    mats = _majorants(planes)
    try:
        # the centre F F^T, as F^{-1}; step k goes 1/(k+2) of the geodesic
        # F (F^{-1} B F^{-T})^t F^T toward the farthest majorant B
        fi = np.linalg.inv(np.linalg.cholesky(mats[0]))
        for k in range(BASE_STEPS):
            w, u = np.linalg.eigh(fi @ mats @ fi.T, UPLO="U")
            j = np.argmin(w[:, 0])
            fi = (u[j] * w[j] ** (-0.5 / (k + 2))) @ u[j].T @ fi
        # G^{-1} F F^T is -1 on z: F^{-1} G F^{-T} y = -y for y = F^T v
        v = (fi.T @ np.linalg.eigh(fi @ space.gram_f @ fi.T)[1]).T[:q]
        for i in range(len(v)):                 # reduced echelon form
            v[i] /= v[i, (j := np.argmax(np.abs(v[i])))]
            v -= np.outer((np.arange(len(v)) != i) * v[:, j], v[i])
        plane = NegativePlane(space, [[Fraction(x).limit_denominator(64)
                                       for x in row] for row in v])
    except (ValueError, np.linalg.LinAlgError):     # degenerate or not finite
        return planes[0]
    kappa = [np.max(_kappas(m, mats)) for m in _majorants([plane, planes[0]])]
    return plane if kappa[0] < kappa[1] else planes[0]


def window_from_planes(z0, planes, nmax):
    """Window about the NegativePlane z0: kappa = SAFETY times the largest
    lambda_max(M_{z0}, M_z) over the planes z, in floats by _kappas, and
    B = 2 nmax kappa rounded up to 1/64, which _prove_window proves."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    ev = _kappas(_majorants([z0])[0], _majorants(planes))
    kappa = max(1.0, float(np.max(ev))) * SAFETY
    try:
        b = Fraction(math.ceil(kappa * 2.0 * float(nmax) * 64)) / 64
    except OverflowError:
        raise ValueError("nmax too large: the window bound overflows a "
                         "float") from None
    return EnumWindow(z0=z0, B=b, kappa=kappa)


def certify_window(walls, z0, nmax):
    """Window for the kernel of an NGon or a DodecData from its vertex
    planes, about the NegativePlane z0 (None: the first vertex plane).  An
    N-gon edge plane [C_j, (s-1) C_{j-1} + s C_{j+1}] lies on the geodesic
    between the vertex planes [C_j, C_{j+1}], and a dodecahedral edge plane
    [C_i, C_j, (s-1) C_a + s C_b] between two vertex 3-planes, so by
    convexity of log lambda_max neither raises kappa above the vertices'."""
    if z0 is None:
        z0 = walls.vertex_planes[0]
    return window_from_planes(z0, walls.vertex_planes, nmax)


def _prove_window(window, walls, nmax):
    """Raise CertificationError unless M_{z0} <= kappa M_{z_j}, kappa =
    B/(2 nmax) = kn/kd >= 1 (X_j cannot tell kappa from 1/kappa), at every
    vertex plane z_j: the pencil's eigenvalues other than 1 are e^{+-2t}, t
    the hyperbolic angles between the planes, whose cosh^2 are those of
    N_j^{-1} P_j N_0^{-1} P_j^T (N the spans' integer Grams, P_j =
    ((C_a, s_b)) the integer pairings), and e^{2t} <= kappa iff cosh^2 t <=
    (kn + kd)^2 / (4 kn kd), iff
      X_j = 4 kn kd sgn(det N_0) P_j adj(N_0) P_j^T - (kn + kd)^2 |det N_0| N_j
    is positive semidefinite: (-1)^k c_k >= 0 for its _charpoly's c_k."""
    if nmax <= 0:       # only x = 0 counts, and every window holds it
        return
    kappa = Fraction(window.B) / (2 * nmax)
    kn, kd, (*_, det, adj) = kappa.numerator, kappa.denominator, window.z0.core
    v = walls.vertices
    p = np.array([walls.pairings(s) for s in window.z0.span], object).T[v]
    pap = p @ np.array(adj, dtype=object) @ p.transpose(0, 2, 1)
    nj = np.array(walls._gram, dtype=object)[v[:, :, None], v[:, None]]
    x = 4 * kn * kd * (det // abs(det)) * pap - (kn + kd) ** 2 * abs(det) * nj
    bad = [j for j, c in enumerate(_charpoly(x)[0]) if kappa < 1
           or any((-1) ** k * ck < 0 for k, ck in enumerate(c))]
    if bad:
        raise CertificationError(f"series window B = {window.B} not proved "
                                 f"for nmax = {nmax} at vertex plane {bad[0]}")


def _check_space(space, walls):
    """Raise ValueError unless the wall collection lives in `space`."""
    if space.gram != walls.space.gram:
        raise ValueError("coset and wall collection live in different spaces")


@dataclass
class CosetRows:
    """Vectors x = xnum/dmu of cosets mu+L, sorted by the index `coset` and
    then lexicographically: int64 numerators over one denominator (munum:
    a row per coset, its mu reduced into [0, 1)) and xx_num = dmu^2 (x,x)
    = 2 dmu^2 Q(x); the floats xf of x and qf of Q(x) derive from them.  A
    row stands for `mult` x."""
    xnum: np.ndarray
    dmu: int
    munum: np.ndarray
    xx_num: np.ndarray
    coset: np.ndarray
    mult: np.ndarray | int = 1

    def __len__(self):
        return len(self.xnum)

    @cached_property
    def xf(self):
        return self.xnum.astype(float) / self.dmu

    @cached_property
    def qf(self):
        return self.xx_num.astype(float) / self.dmu ** 2 / 2.0


def _fp_enumerate(majorant, d, munum, bound, band=None, fold=None):
    """Coset index c and int64 numerators x d = k d + munum[c] of rows x,
    sorted by c and then lexicographically, that contain every x = k + mu_c
    (k integer) with x^T M x <= bound, M = mi/dm for majorant = (mi, dm) and
    mu_c = munum[c]/d: float Fincke-Pohst bounds with padding, which an exact
    filter then decides; with band = (float Gram, qmax), only those with
    0 <= Q <= qmax; where fold[c], only x = 0 and the x whose first nonzero
    coordinate is positive.  The search runs level-wise, coordinate i = 0 up
    to m-1, all cosets at once: each partial row (k_0, ..., k_{i-1}) whose
    budget is at least -pad gets its children k_i in its padded interval in
    increasing order, so the rows are born sorted.  The last level keeps its
    children unfiltered and writes their numerators, its parents' then its
    own.  A k_i range reaching K_MAX raises ValueError before it is cast to
    int64, and a level of more than ROWS_MAX rows before it is allocated."""
    mi, dm = majorant
    m = len(mi)
    muf = munum / d
    bf = float(bound)
    # q(x) = sum_i d_i (x_i + sum_{j<i} l_ij x_j)^2, i eliminated downward
    a = np.array([[v / dm for v in row] for row in mi])    # correctly rounded
    dvec, lmat = np.empty(m), np.zeros((m, m))
    for i in range(m - 1, -1, -1):
        dvec[i] = a[i, i]
        lmat[i, :i] = a[i, :i] / a[i, i]
        a[:i, :i] -= np.outer(a[i, :i], a[i, :i]) / a[i, i]
    pad = 1e-7 * (1.0 + abs(bf))
    c = np.arange(len(muf))           # coset of each partial row
    ks = np.zeros((len(muf), 0))      # float k_{0..i-1} of each partial row
    budget = np.full(len(muf), bf)
    for i in range(m):
        live = np.flatnonzero(budget >= -pad)
        c, ks, budget = c[live], np.take(ks, live, 0), budget[live]
        off = muf[:, i] + muf[:, :i] @ lmat[i, :i]      # once per coset
        shift = ks @ lmat[i, :i] + off[c]
        t = np.sqrt((budget + pad) / dvec[i])
        lo = np.ceil(-t - shift - 1e-9)
        hi = np.floor(t - shift + 1e-9)
        if max(hi.max(initial=0.0), -lo.min(initial=0.0)) >= K_MAX:
            raise ValueError("enumeration window too large: a coordinate "
                             "of its lattice vectors passes 2^53")
        if fold is not None:     # x_i >= 0 while a folded row's x is all 0
            fold = fold[live]
            lo = np.where(fold, np.maximum(lo, np.ceil(-muf[c, i])), lo)
        src = np.arange(len(ks))
        if i == m - 1 and band is not None:
            src, lo, hi = _band_cut(ks + muf[c, :-1], muf[c, -1], lo, hi,
                                    *band)
        count = np.maximum(hi - lo + 1, 0)
        if count.sum() > ROWS_MAX:          # float: no int64 overflow
            raise ValueError("enumeration window too large: one level of its "
                             f"search needs {count.sum():.3g} rows, more "
                             f"than {ROWS_MAX:.0e}")
        count = count.astype(np.int64)
        parent = np.repeat(src, count)
        kk = np.repeat(lo + count - np.cumsum(count), count) \
            + np.arange(len(parent))
        if i == m - 1:
            break
        y = kk + shift[parent]
        budget = budget[parent] - dvec[i] * y * y
        c, ks = c[parent], np.column_stack([np.take(ks, parent, 0), kk])
        fold = None if fold is None else fold[parent] & (kk == -muf[c, i])
    xnum = np.take(munum, c, 0)             # the parents' numerators
    xnum[:, :-1] += ks.astype(np.int64) * d
    xnum = np.take(xnum, parent, 0)
    xnum[:, -1] += kk.astype(np.int64) * d
    return c[parent], xnum


def _band_cut(xr, mu_last, lo, hi, gram, qmax):
    """(row, lo, hi) of the pieces, each row's in increasing order, of the
    ranges lo <= k_{m-1} <= hi of the partial rows xr = (x_0, ..., x_{m-2})
    with 0 <= Q(x) <= qmax, rounded outward.  Q = a y^2 + b y + c in
    y = k_{m-1} + mu_last: one piece if a = 0, else two, yv + [-r1, -r0]
    and yv + [r0, r1] about the vertex yv."""
    a, b = gram[-1, -1] / 2, xr @ gram[:-1, -1]
    c = (xr @ gram[:-1, :-1] * xr).sum(1) / 2
    # a band padding far above the float error of c and of Q(yv)
    pq = 1e-7 * (1.0 + (abs(xr) @ abs(gram[:-1, :-1]) * abs(xr)).sum(1))
    rows = np.arange(len(xr))
    if a == 0:     # where b = 0 too, a tiny slope keeps every y or none
        y = (np.array([-pq, qmax + pq]) - c) / np.where(b == 0, 1e-200, b)
        return rows, *_outward(y.min(0) - mu_last, y.max(0) - mu_last, lo, hi)
    yv = -b / (2 * a)
    pq += 1e-7 * abs(a) * yv * yv
    qv = math.copysign(1.0, a) * c - abs(a) * yv * yv     # sgn(a) Q(yv)
    tlo, thi = (-pq, qmax + pq) if a > 0 else (-qmax - pq, pq)
    r1, r0 = (np.sqrt(np.maximum(t - qv, 0.0) / abs(a)) for t in (thi, tlo))
    kc, top = yv - mu_last, np.where(thi < qv, lo - 1, hi)
    lo1, hi1 = _outward(kc - r1, kc - r0, lo, top)
    # the second piece starts past the first: no k is emitted twice
    lo2, hi2 = _outward(kc + r0, kc + r1, np.maximum(lo, hi1 + 1), top)
    return rows.repeat(2), np.ravel((lo1, lo2), 'F'), np.ravel((hi1, hi2), 'F')


def _outward(ylo, yhi, lo, hi):
    """The integer ranges [lo, hi] cut to [ylo, yhi], rounded outward."""
    return (np.maximum(lo, np.ceil(ylo - 1e-9 * (1.0 + abs(ylo)))),
            np.minimum(hi, np.floor(yhi + 1e-9 * (1.0 + abs(yhi)))))


def _majorant_leq(xnum, dmu, majorant, bound):
    """Exact mask of the rows x = xnum/dmu with x^T M x <= bound, M = mi/dm
    for majorant = (mi, dm): xnum^T mi xnum <= floor(bound dm dmu^2)."""
    mi, dm = majorant
    return _row_norms(xnum, mi) <= math.floor(Fraction(bound) * dm * dmu * dmu)


def _numerators(mus):
    """(d, int64 rows) with mus = rows/d mod L, d the lcm of all
    denominators: each entry reduced into [0, 1) before the int64 cast."""
    d, flat = _over_lcm([c for mu in mus for c in mu])
    return d, np.array([v % d for v in flat],
                       dtype=np.int64).reshape(len(mus), -1)


def enumerate_cosets(space, mus, window, qmax=None, even=False, keep=None):
    """The vectors x in mu+L, for each mu of mus (in L∨), with (x,x)_{z0} <=
    B, as one CosetRows over the lcm of the mus' denominators, formed once
    and filtered exactly; with a qmax, only those with 0 <= Q(x) <= qmax,
    and with keep, a mask of int64 numerator rows, only the rows it keeps,
    taken before the exact filter.  For an even kernel, a coset with 2 mu in
    L holds x = 0 and one x of each +-x pair, at mult 2.  Each mu is first
    reduced mod L, entries into [0, 1), so that its numerators fit int64
    whatever representative was given."""
    d, munum = _numerators(mus)
    band = None if qmax is None else (space.gram_f, float(qmax))
    fold = ~np.any(2 * munum % d, axis=1) if even else None    # 2 mu in L
    c, xnum = _fp_enumerate(window.z0.majorant, d, munum, window.B, band,
                            fold)
    if keep is not None:
        rows = np.flatnonzero(keep(xnum))
        c, xnum = c[rows], np.take(xnum, rows, 0)
    ok = _majorant_leq(xnum, d, window.z0.majorant, window.B)
    xx_num = _row_norms(xnum, space._gi)           # 2 d^2 Q(x)
    if qmax is not None:
        ok &= (xx_num >= 0) & (xx_num <= math.floor(2 * d**2 * rat(qmax)))
    mult = (np.where(fold[c] & reduce(np.logical_or, xnum.T != 0), 2, 1)[ok]
            if even else 1)
    return CosetRows(np.compress(ok, xnum, 0), d, munum, xx_num=xx_num[ok],
                     coset=c[ok], mult=mult)


def enumerate_coset(coset, window, qmax=None, even=False, keep=None):
    """enumerate_cosets of one coset, over its own denominator."""
    return enumerate_cosets(coset.space, [coset.mu], window, qmax, even, keep)


@dataclass
class QExpansion:
    """sum_n c(n) q^n as the integers jsonio writes: exponents e/qden (e in
    exps, ascending; qden = 2 dmu^2), coefficients c/den (c in nums; den 1,
    4 normalized, 8 for P; 0 if terms cancel), flagged exponents f/qden (f in
    flag_exps ascending).  Lazy: entries {n: c(n)} (int iff den = 1), flags."""
    mu: tuple
    nmax: Fraction
    qden: int
    exps: list
    nums: list
    den: int = 1
    flag_exps: list = ()
    window: EnumWindow = None
    normalized = property(lambda self: self.den == 4)

    @cached_property
    def entries(self):
        return {Fraction(e, self.qden): c if self.den == 1 else
                Fraction(c, self.den) for e, c in zip(self.exps, self.nums)}

    @cached_property
    def flags(self):
        return {Fraction(f, self.qden) for f in self.flag_exps}

    def coeff(self, n):
        return self.entries.get(rat(n), 0)


def _certified_series(coset, walls, nmax, window, den):
    """q-expansion of sum_x kernel(x)/den q^{Q(x)} over a proved window (by
    default certify_window's) from the enumerated x with a nonzero kernel or
    a zero sign: walls.kernel maps their exact signs (walls.sign_matrix) to
    integer numerators, times mult if it is even (walls.even: every NGon)."""
    _check_space(coset.space, walls)
    if window is None:
        window = certify_window(walls, None, nmax)
    _prove_window(window, walls, nmax)

    def terms(xnum):     # kernel numerators, rows with a zero sign
        signs = walls.sign_matrix(xnum)
        return walls.kernel(signs), reduce(np.logical_or, signs.T == 0)
    batch = enumerate_coset(coset, window, qmax=nmax, even=walls.even,
                            keep=lambda xnum: np.logical_or(*terms(xnum)))
    num, odd = terms(batch.xnum)
    exps, where = np.unique(batch.xx_num[num != 0], return_inverse=True)
    sums = np.zeros(len(exps), dtype=np.int64)
    np.add.at(sums, where, (num * batch.mult)[num != 0])
    # a set of ints: np.unique's hash path imports numpy.ma (17 ms, 1 MB)
    flags = sorted({e for e in batch.xx_num[odd].tolist() if e > 0})
    return QExpansion(coset.mu, nmax, 2 * batch.dmu ** 2, exps.tolist(),
                      sums.tolist(), den, flags, window)


def holomorphic_series(coset, ngon, nmax, window=None, normalized=False):
    """q-expansion of sum_x eps(x) q^{Q(x)} (eps/4 when normalized) over the
    proved window."""
    return _certified_series(coset, ngon, rat(nmax), window,
                             4 if normalized else 1)


def _completion_terms(ngon, batch, vs):
    """The N-gon completion kernel eps(x) + sum_k (s_{k-1}+s_{k+1}) e_k +
    sum_j rho_j of the batch's rows at each Im tau = v of vs, shape
    (len(vs), len(batch)), at its final weight e^{amp}, amp = -2 pi v Q
    capped at AMP_CAP, 0 on skipped rows; the (v, row) items go in runs of
    at most EVAL_ROWS, one _row_terms and one cone_sum call each."""
    out = np.zeros((len(vs), len(batch)))
    step = EVAL_ROWS // len(vs)
    for lo in range(0, len(batch), step):
        live, vals, item, pairs = _row_terms(ngon, batch, vs, lo, lo + step)
        np.put(out, live, vals + np.bincount(item, cone_sum(
            ngon.frames[0], *pairs, cut=-RHO_LOG_TOL), minlength=len(vals)))
    return out


def _row_terms(ngon, batch, vs, lo=0, hi=None):
    """The flat indices `live` into _completion_terms' values of the items
    (v, row), rows lo:hi, whose bound (|w| + N) e^{amp} (each E2 lies in
    [-1, 1]) reaches e^{RHO_LOG_TOL}, their eps and wall terms, the item of
    each (item, edge) pair that passes the rho screen, and the pairs'
    cone_sum arguments: edge, plane centre, the signs (s_j, s_{j+1}) at its
    ends (cone_sum's reference signs: the quadrants of span(C_j, C_{j+1})
    weigh (sigma_1 - s_j)(sigma_2 - s_{j+1})) and amp.  An item has its own
    amp and scale sqrt(2 v), a row's signs and margins are formed once, and
    the wall adjacency, quadrant ends and pair screen read ngon.vertices."""
    from scipy.special import erfcx
    amp = np.minimum(np.multiply.outer([-2.0 * math.pi * v for v in vs],
                                       batch.qf[lo:hi]), AMP_CAP)
    log_bound = math.log(abs(ngon.level_at()) + ngon.n)
    v, row = _nonzero_2d(amp + log_bound >= RHO_LOG_TOL)
    amp, scale = amp[v, row], np.sqrt(2.0 * np.array(vs))[v]
    _, proj, chat_g = ngon.frames
    va, vb = ngon.vertices.T
    adj = np.zeros((ngon.n, ngon.n), dtype=np.int64)
    adj[va, vb] = adj[vb, va] = 1
    signs = ngon.sign_matrix(batch.xnum[lo:hi])
    xf = batch.xf[lo:hi]
    vals = np.take(ngon.kernel(signs), row) * np.exp(amp)
    coef = np.take(signs @ adj, row, 0)
    tmat = scale[:, None] * np.take(xf @ chat_g.T, row, 0)  # tau_k margins
    signs = np.take(signs, row, 0)
    # wall terms: (s_{k-1}+s_{k+1}) * (erf(sqrt(pi) tau_k) - s_k) * e^{amp}
    # lie within 2 e^{lead}, lead = amp - pi tau_k^2 (erfcx <= 1); only
    # those of nonzero coefficient that can reach e^{RHO_LOG_TOL} count
    with np.errstate(over='ignore'):
        lead = np.where(signs != 0, amp[:, None] - math.pi * tmat ** 2,
                        amp[:, None])
    r, k = _nonzero_2d((coef != 0) & (signs != 0) & (lead >= RHO_LOG_TOL))
    ek = np.zeros(tmat.shape)
    ek[r, k] = -signs[r, k] * erfcx(math.sqrt(math.pi) * np.abs(tmat[r, k])) \
        * np.exp(np.minimum(lead[r, k], AMP_CAP))
    vals += reduce(np.add, (coef * ek).T)
    # rho terms: signed Gaussian cone masses.  A cone with nonzero weight
    # flips every wall carrying a nonzero sign, so its distance from the
    # Gaussian center is at least the larger signed-wall margin: its term
    # is below e^{lead} of both walls (lead = amp on a zero sign).
    p, edges = _nonzero_2d(np.minimum(lead[:, va], lead[:, vb])
                           > RHO_LOG_TOL)
    u = scale[p, None] * np.einsum('pij,pj->pi', np.take(proj, edges, 0),
                                   np.take(xf, row[p], 0))
    ends = np.column_stack([signs[p, va[edges]], signs[p, vb[edges]]])
    return v * len(batch) + lo + row, vals, p, (edges, u, ends, amp[p])


def _completed(space, ngon, mus, nmax, taus, window=None):
    """The completed series of the cosets mus at each tau of taus, shape
    (len(taus), len(mus)), and per distinct Im tau, in the order of taus,
    each coset's tail estimate: one batch in the window (by default about
    minimax_plane), one kernel pass over the sorted distinct Im tau, and
    per tau each coset's sum of mult * term * e^{2 pi i Re(tau) Q}."""
    _check_space(space, ngon)
    if window is None:
        window = certify_window(ngon, minimax_plane(ngon.vertex_planes), nmax)
    batch = enumerate_cosets(space, mus, window, even=ngon.even)
    vs = dict.fromkeys(t.imag for t in taus)   # tau's tail raises first
    tails = [_tail_estimate(batch, window, ngon.n, v) for v in vs]
    scaled = dict(zip(sorted(vs), _completion_terms(ngon, batch, sorted(vs))))
    ends = np.searchsorted(batch.coset, np.arange(len(mus) + 1))
    vals = []
    for t in taus:
        terms = batch.mult * scaled[t.imag] \
            * np.exp(2j * math.pi * t.real * batch.qf)
        vals.append([np.sum(terms[a:b]) for a, b in zip(ends, ends[1:])])
    return np.array(vals), tails


def completion_eval(coset, ngon, tau, nmax, window=None):
    """Value of the completed series at tau for one coset, with a tail
    estimate: (value, tail).  The default window is about minimax_plane."""
    vals, tails = _completed(coset.space, ngon, [coset.mu], nmax, [tau],
                             window)
    return complex(vals[0, 0]), tails[0][0]


def _tail_estimate(batch, window, n_edges, v):
    """Heuristic tail bound 2N * sum_{(x,x)_{z0} > B} e^{-pi v (x,x)_{z0}/kappa}
    per coset, the lattice-point density calibrated from the (at least one)
    vectors the batch holds of it, all in the window (x,x)_{z0} <= B."""
    from scipy.special import gammaincc, gamma as gamma_fn
    if v <= 0:
        raise ValueError("tau must lie in the upper half plane")
    m = window.z0.space.dim
    bf = float(window.B)
    count = np.bincount(batch.coset, np.broadcast_to(batch.mult, len(batch)),
                        len(batch.munum))
    c = np.maximum(count, 1) * (m / 2.0) / max(bf, 1.0) ** (m / 2.0)
    lam = math.pi * v / window.kappa
    # integral_B^inf t^{m/2-1} e^{-lam t} dt = Gamma(m/2) lam^{-m/2} Q(m/2, lam B)
    try:
        integral = gamma_fn(m / 2.0) * lam ** (-m / 2.0) \
            * gammaincc(m / 2.0, lam * bf)
    except OverflowError:
        raise CertificationError(
            f"tail estimate overflows at Im tau = {v!r}") from None
    return 4.0 * (2 * n_edges) * c * integral


# --- Weil representation checks -------------------------------------------

# S-matrix convention for the weight-m/2 completion, calibrated at tau=i
# on the reference rank-3 lattice and validated by the S^2 composition check:
#   theta_mu(-1/tau) = tau^{m/2} * (phase/sqrt|D|) * sum_nu e(+(mu,nu)) theta_nu(tau)
# with phase = e((q-p)/8) for signature (p,q) and the principal branch of
# tau^{m/2}.
def weil_matrices(space):
    """(reps, T diagonal, S matrix, negation index) of the finite quadratic
    module L∨/L; neg[i] is the index of -reps[i]."""
    reps = disc_group(space)
    d = len(reps)
    p, q = space.sig
    # representatives R/den as integer rows: (mu, nu) = (R G R^T)/den^2 for
    # the integer Gram G = space._gi of a lattice, whose float quotient is
    # the correctly rounded float of the exact pairing, as is Q(mu)'s
    den, r = _numerators(reps)
    tdiag = np.array([cmath.exp(2j * math.pi * (int(n) / (2 * den * den)))
                      for n in _row_norms(r, space._gi)])
    phase = cmath.exp(2j * math.pi * (q - p) / 8.0)
    pair = r @ np.array(space._gi, dtype=np.int64) @ r.T / (den * den)
    s = np.exp(2j * math.pi * pair)
    s *= phase / math.sqrt(d)
    index = {row: i for i, row in enumerate(map(tuple, r.tolist()))}
    neg = [index[row] for row in map(tuple, (-r % den).tolist())]
    return reps, tdiag, s, neg


def weil_sanity(space, weil):
    """(unitarity defect, S^2-composition defect) of weil_matrices(space);
    both should be ~0."""
    reps, _, s, neg = weil
    d = len(reps)
    # S S* = 1, S^2 = phase^2 * (mu -> -mu); one d x d product at a time
    uni = s @ s.conj().T
    uni[np.diag_indices(d)] -= 1.0
    uni = float(np.max(np.abs(uni)))
    p, q = space.sig
    comp = s @ s
    comp[neg, np.arange(d)] -= cmath.exp(2j * math.pi * (q - p) / 4.0)
    return uni, float(np.max(np.abs(comp)))


def modularity_check(space, ngon, tau, nmax):
    """Compare the completion vector at tau+1 and -1/tau against the finite
    Weil transform; returns a report dict.  The completion kernel is even
    (eps, the wall terms and the rho masses are invariant under x -> -x,
    and so is the window), so theta_{-mu} = theta_mu: the cosets mu_i with
    i <= index(-mu_i) are one even batch about completion_eval's window,
    evaluated at both Im tau at once; a value fills both entries of a pair."""
    reps, tdiag, smat, neg = weil = weil_matrices(space)
    own = [i for i, j in enumerate(neg) if i <= j]
    pair = np.searchsorted(own, np.minimum(np.arange(len(reps)), neg))
    vals, tails = _completed(space, ngon, [reps[i] for i in own], nmax,
                             [tau, tau + 1, -1 / tau])
    base, shifted, inverted = vals[:, pair]
    tail = max(np.max(t) for t in tails)
    t_defect = float(np.max(np.abs(shifted - tdiag * base)))
    auto = tau ** (space.dim / 2.0)
    s_defect = float(np.max(np.abs(inverted - auto * (smat @ base))))
    uni, comp = weil_sanity(space, weil)
    return {
        "t_defect": t_defect,
        "s_defect": s_defect,
        "tail": tail,
        "weil_unitarity": uni,
        "weil_composition": comp,
        "theta": base,
    }
