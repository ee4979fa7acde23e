"""Lattice coset enumeration under majorant ellipsoids, holomorphic
q-expansions, numerical evaluation of the non-holomorphic completion, and
finite-Weil-representation modularity checks.

Enumeration is certified in two steps.  First a comparability constant kappa
gives the bound (x,x)_{z0} <= kappa * (x,x) for every x whose kernel value
can be nonzero: such x satisfy (x,x) = (x,x)_{z*} for some plane z* on the
wall surface, so kappa only has to bound lambda_max(M_{z0}, M_z) over that
surface.  log lambda_max(M_{z0}, M_z) is the sup-norm Finsler distance from
z0 to z on the symmetric space of majorants, which is convex along geodesics
(Bhatia, Positive Definite Matrices, ch. 6), and every edge of the surface
is a geodesic segment between two vertex planes, so the maximum is attained
at a vertex plane; kappa is computed there, in floating point.  Second, a
guard band above the bound is enumerated and must contain no x with nonzero
kernel.  That exact check is what makes a series exact.  When it fails, the
window is re-certified about the same base plane z0 with twice its safety
factor, at most RETRIES times; after that the series raises
CertificationError (CLI exit code 3).  N-gons and dodecahedra share this
path: both carry their vertex planes and an integer sign kernel, and the
default base plane is the first vertex plane.  enumerate_coset returns the
one row batch (CosetRows) that the series driver and the completion kernel
read, and the signs of (x, C_j) come from the wall collection's
sign_matrix on the batch's integer rows.  The kernels vanish on nonzero
vectors of norm <= 0, so a series batch holds only the window's rows with
0 <= Q(x) <= nmax; the completion kernel does not, and its batches hold
the whole window.

The completion kernel returns each window row's term at its final weight,
kernel(x) e^{-2 pi v Q(x)}, so one tolerance RHO_LOG_TOL screens what each
term adds to the sum: whole rows by the proved bound |kernel| <= |w| + N,
and single rho cone masses by their distance from the Gaussian centre.
The kernel is even in x, so theta_{-mu} = theta_mu, and modularity_check
evaluates one coset of each +-mu pair.
"""

import math
import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errfn import SIGNS, cone_sum
from .ngon import w_invariant
from .qspace import (NegativePlane, _adjugate, _over_lcm, _row_norms, rat,
                     vec)

AMP_CAP = 600.0          # exponent cap keeping corrupted kernels finite
PAIR_BLOCK = 8192        # rho pairs pooled per round of cone masses
RHO_LOG_TOL = -38.0      # skip completion terms below e^{RHO_LOG_TOL}
RETRIES = 3              # re-certifications before CertificationError
GUARD = Fraction(6, 5)   # series and completions enumerate up to GUARD * B


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
        # G mu is integral iff every (e_i, mu) is; a wrong-length mu raises
        if any(space.inner([int(i == j) for j in range(m)], self.mu)
               .denominator != 1 for i in range(m)):
            raise ValueError("mu is not in the dual lattice")


def disc_group(space):
    """Sorted coset representatives of L∨/L, each with entries in [0,1).
    With d = |det G| the numerators d*mu mod d form the closure of 0 under
    adding the m integer columns of d*G^{-1}, so memory grows like d*m."""
    m = space.dim
    det, adj = _adjugate(space._gi)
    d = abs(det)                          # d G^{-1} = sign(det) adj
    gens = [tuple(v * (d // det) % d for v in col) for col in zip(*adj)]
    seen = {(0,) * m}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    reps = sorted(tuple(Fraction(v, d) for v in row) for row in seen)
    assert len(reps) == d, "dual group size must equal |det|"
    return reps


def majorant_matrix(space, z0_span):
    """Exact positive-definite matrix M with x^T M x = (x,x)_{z0}:
    M = G - 2 (G S) (S^T G S)^{-1} (G S)^T for the span S of z0, computed
    as (det(n) gi - 2 g adj(n) g^T) / (den det(n)) from int_core's g, n."""
    _, g, n = space.int_core([vec(v) for v in z0_span])
    (det, adj), k, m = _adjugate(n), len(n), space.dim
    return [[Fraction(det * space._gi[i][j] - 2 * sum(
        g[a][i] * adj[a][b] * g[b][j] for a in range(k) for b in range(k)),
        space._den * det) for j in range(m)] for i in range(m)]


@dataclass
class EnumWindow:
    z0: NegativePlane
    B: Fraction
    kappa: float
    safety: float
    nmax: Fraction

    @cached_property
    def majorant(self):
        """Exact matrix of (x,x)_{z0}, built on first use."""
        return majorant_matrix(self.z0.space, self.z0.span)


def _majorant_f(plane):
    """Float matrix of (x,x)_z from the plane's centre map m: G + 2 m^T m."""
    m = plane.frame[1]
    return plane.space.gram_f + 2.0 * m.T @ m


def window_from_planes(space, z0_span, planes, nmax, safety=1.5):
    """Comparability window: kappa = safety * max over the given
    planes of the largest generalized eigenvalue of M_{z0} against M_z, in
    floating point (the guard band, not kappa, makes the series exact).
    Below safety 1 the window would fall short of the proven bound."""
    if not (math.isfinite(safety) and safety >= 1):
        raise ValueError("safety must be a finite number >= 1")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    from scipy.linalg import eigh
    span = tuple(map(vec, z0_span))
    z0 = next((p for p in planes if p.span == span), None) \
        or NegativePlane(space, span)
    m0 = _majorant_f(z0)
    kappa = 1.0
    for pl in planes:
        ev = eigh(m0, _majorant_f(pl), eigvals_only=True)
        kappa = max(kappa, float(np.max(ev)))
    kappa *= safety
    b = Fraction(math.ceil(kappa * 2.0 * float(nmax) * 64)) / 64
    return EnumWindow(z0=z0, B=b, kappa=kappa, safety=safety, nmax=rat(nmax))


def certify_window(space, walls, z0_span, nmax, safety=1.5):
    """Window for the kernel of an NGon or a DodecData from its vertex
    planes, about the base plane z0_span (None: the first vertex plane).
    An N-gon edge plane [C_j, (s-1) C_{j-1} + s C_{j+1}] lies on the
    geodesic between two vertex planes [C_j, C_{j+1}] inside the totally
    geodesic H^2 of span(C_{j-1}, C_j, C_{j+1}); a dodecahedral edge plane
    [C_i, C_j, (s-1) C_a + s C_b] lies on the geodesic between two vertex
    3-planes inside the H^3 of span(C_i, C_j, C_a, C_b).  By convexity of
    log lambda_max neither can raise kappa above its value at the
    vertices."""
    if z0_span is None:
        z0_span = walls.vertex_planes[0].span
    return window_from_planes(space, z0_span, walls.vertex_planes, nmax,
                              safety=safety)


def _check_space(space, walls):
    """Raise ValueError unless the wall collection lives in `space`."""
    if space.gram != walls.space.gram:
        raise ValueError("coset and wall collection live in different spaces")


@dataclass
class CosetRows:
    """The enumerated vectors x = xnum/dmu of a coset mu+L, in lexicographic
    order: int64 numerators (munum those of mu), the exact window split
    `inside` ((x,x)_{z0} <= B) and xx_num = dmu^2 (x,x) = 2 dmu^2 Q(x).
    The integer rows k = x - mu and the floats xf of x and qf of Q(x)
    derive from them; xf and qf are built on first use."""
    xnum: np.ndarray
    dmu: int
    munum: list
    inside: np.ndarray
    xx_num: np.ndarray

    def __len__(self):
        return len(self.xnum)

    @property
    def ks(self):
        return (self.xnum - self.munum) // self.dmu

    @cached_property
    def xf(self):
        return self.xnum.astype(float) / self.dmu

    @cached_property
    def qf(self):
        return self.xx_num.astype(float) / self.dmu ** 2 / 2.0


def _fp_enumerate(m_exact, mu, bound, band=None):
    """int64 rows k, in lexicographic order, that contain every integer
    vector with (k+mu)^T M (k+mu) <= bound: float Fincke-Pohst bounds with
    padding, which an exact filter then decides; with band = (float Gram,
    qmax), only those with 0 <= Q <= qmax.

    The search runs level-wise, coordinate i = m-1 down to 0: every partial
    row (k_{i+1}, ..., k_{m-1}) whose remaining budget is at least -pad gets
    one child per integer k_i in its padded interval, all rows of a level at
    once; the children of the last level are all kept, so the exact filter
    alone decides the boundary."""
    m = len(m_exact)
    mf = np.array([[float(v) for v in row] for row in m_exact])
    muf = np.array([float(v) for v in mu])
    bf = float(bound)
    # LDL^T: q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2, i eliminated upward
    a = mf.copy()
    dvec = np.empty(m)
    lmat = np.zeros((m, m))
    for i in range(m):
        dvec[i] = a[i, i]
        lmat[i, i + 1:] = a[i, i + 1:] / a[i, i]
        a[i + 1:, i + 1:] -= np.outer(a[i, i + 1:], a[i, i + 1:]) / a[i, i]
    pad = 1e-7 * (1.0 + abs(bf))
    ks = np.zeros((1, 0))             # float k_{i+1..m-1} of each partial row
    budget = np.array([bf])
    for i in range(m - 1, -1, -1):
        live = budget >= -pad
        ks, budget = ks[live], budget[live]
        shift = muf[i] + (ks + muf[i + 1:]) @ lmat[i, i + 1:]
        t = np.sqrt((budget + pad) / dvec[i])
        lo = np.ceil(-t - shift - 1e-9)
        hi = np.floor(t - shift + 1e-9)
        src = np.arange(len(ks))
        if i == 0 and band is not None:
            src, lo, hi = _band_cut(ks + muf[1:], muf[0], lo, hi, *band)
        count = np.maximum(hi - lo + 1, 0).astype(np.int64)
        parent = np.repeat(src, count)
        kk = np.repeat(lo + count - np.cumsum(count), count) \
            + np.arange(len(parent))
        y = kk + shift[parent]
        budget = budget[parent] - dvec[i] * y * y
        ks = np.column_stack([kk, ks[parent]])
    ks = ks.astype(np.int64)
    return ks[np.lexsort(ks.T[::-1])]


def _band_cut(xr, mu0, lo, hi, gram, qmax):
    """(row, lo, hi) of the pieces of the ranges lo <= k_0 <= hi of the
    partial rows xr = (x_1, ..., x_{m-1}) with 0 <= Q(x) <= qmax, rounded
    outward.  Q = a y^2 + b y + c in y = k_0 + mu_0: one piece if a = 0,
    else two, yv + [-r1, -r0] and yv + [r0, r1] about the vertex yv."""
    a, b = gram[0, 0] / 2, xr @ gram[0, 1:]
    c = (xr @ gram[1:, 1:] * xr).sum(1) / 2
    # a band padding far above the float error of c and of Q(yv)
    pq = 1e-7 * (1.0 + (abs(xr) @ abs(gram[1:, 1:]) * abs(xr)).sum(1))
    rows = np.arange(len(xr))
    if a == 0:     # where b = 0 too, a tiny slope keeps every y or none
        y = (np.array([-pq, qmax + pq]) - c) / np.where(b == 0, 1e-200, b)
        return rows, *_outward(y.min(0) - mu0, y.max(0) - mu0, lo, hi)
    yv = -b / (2 * a)
    pq += 1e-7 * abs(a) * yv * yv
    qv = math.copysign(1.0, a) * c - abs(a) * yv * yv     # sgn(a) Q(yv)
    tlo, thi = (-pq, qmax + pq) if a > 0 else (-qmax - pq, pq)
    r1, r0 = (np.sqrt(np.maximum(t - qv, 0.0) / abs(a)) for t in (thi, tlo))
    kc, top = yv - mu0, np.where(thi < qv, lo - 1, hi)
    lo1, hi1 = _outward(kc - r1, kc - r0, lo, top)
    # the second piece starts past the first: no k_0 is emitted twice
    lo2, hi2 = _outward(kc + r0, kc + r1, np.maximum(lo, hi1 + 1), top)
    return np.tile(rows, 2), np.append(lo1, lo2), np.append(hi1, hi2)


def _outward(ylo, yhi, lo, hi):
    """The integer ranges [lo, hi] cut to [ylo, yhi], rounded outward."""
    return (np.maximum(lo, np.ceil(ylo - 1e-9 * (1.0 + abs(ylo)))),
            np.minimum(hi, np.floor(yhi + 1e-9 * (1.0 + abs(yhi)))))


def _majorant_leq(xnum, dmu, m_exact, bound):
    """Exact mask of the rows x = xnum/dmu with x^T M x <= bound, with the
    integer norms q = xnum^T mi xnum and their denominator den = dm dmu^2,
    M = mi/dm: x^T M x <= bound iff q <= floor(bound * den)."""
    dm = math.lcm(*(v.denominator for row in m_exact for v in row))
    q = _row_norms(xnum, [[int(v * dm) for v in row] for row in m_exact])
    den = dm * dmu * dmu
    return q <= math.floor(Fraction(bound) * den), q, den


def enumerate_coset(coset, window, slack=Fraction(1), qmax=None):
    """The vectors x in mu+L with (x,x)_{z0} <= slack*B, as CosetRows: their
    numerators are formed once, filtered exactly and split at B.  With a
    qmax, only those with 0 <= Q(x) <= qmax, in the same order."""
    bound = window.B * slack
    dmu, munum = _over_lcm(coset.mu)
    band = None if qmax is None else (coset.space.gram_f, float(qmax))
    xnum = _fp_enumerate(window.majorant, coset.mu, bound, band) * dmu + munum
    keep, norms, den = _majorant_leq(xnum, dmu, window.majorant, bound)
    xx_num = _row_norms(xnum, coset.space._gi)       # 2 dmu^2 Q(x)
    if qmax is not None:
        keep &= (xx_num >= 0) & (xx_num <= math.floor(2 * dmu**2 * rat(qmax)))
    return CosetRows(xnum[keep], dmu, munum,
                     inside=norms[keep] <= math.floor(window.B * den),
                     xx_num=xx_num[keep])


@dataclass
class QExpansion:
    mu: tuple
    entries: dict                      # Fraction n -> coefficient
    nmax: Fraction
    flags: set = field(default_factory=set)   # boundary-incident exponents
    window: EnumWindow = None
    normalized: bool = False

    def coeff(self, n):
        return self.entries.get(rat(n), 0)


def _certified_series(coset, walls, nmax, window, safety, den):
    """q-expansion of sum_x kernel(x)/den q^{Q(x)} over a certified window,
    where walls.kernel maps the exact sign matrix of the enumerated x
    (walls.sign_matrix) to integer numerators.  Without a window, the default
    one is certified at `safety`.  A guard-band x with a nonzero kernel and
    Q(x) in (0, nmax] voids the window, which is then re-certified about its
    own base plane at twice its safety, at most RETRIES times."""
    _check_space(coset.space, walls)
    if window is None:
        window = certify_window(coset.space, walls, None, nmax, safety)
    for attempt in range(RETRIES + 1):
        if attempt:
            window = certify_window(coset.space, walls, window.z0.span, nmax,
                                    safety=2 * window.safety)
        batch = enumerate_coset(coset, window, GUARD, qmax=nmax)
        signs = walls.sign_matrix(batch.xnum)
        num = walls.kernel(signs)
        if not np.any(batch.xx_num[(num != 0) & ~batch.inside] != 0):
            break
    else:
        raise CertificationError(
            "guard band contains kernel-supported vectors; "
            f"retried up to safety={window.safety}")
    # one Fraction per distinct exponent; exponents whose terms cancel keep
    # a zero entry
    hits = (num != 0) & batch.inside
    exps, where = np.unique(batch.xx_num[hits], return_inverse=True)
    sums = np.zeros(len(exps), dtype=np.int64)
    np.add.at(sums, where, num[hits])
    odd = ~np.all(signs != 0, axis=1) & batch.inside
    qden = 2 * batch.dmu ** 2
    return QExpansion(
        mu=coset.mu, nmax=nmax, window=window,
        entries={Fraction(int(e), qden): int(c) if den == 1 else
                 Fraction(int(c), den) for e, c in zip(exps, sums)},
        flags={Fraction(int(e), qden)
               for e in set(batch.xx_num[odd]) if e > 0})


def holomorphic_series(coset, ngon, nmax, window=None, normalized=False,
                       safety=1.5):
    """q-expansion of sum_x eps(x) q^{Q(x)} (eps/4 when normalized) over the
    certified window."""
    qe = _certified_series(coset, ngon, rat(nmax), window, safety,
                           4 if normalized else 1)
    qe.normalized = normalized
    return qe


class _CompletionKernel:
    """The stable completion kernel of an N-gon
       kernel(x) = eps(x) + sum_k (s_{k-1}+s_{k+1}) e_k + sum_j rho_j,
    evaluated at its final weight: multiplied by e^{amp}, amp = -2 pi v Q
    (capped at AMP_CAP), so that each row's value is its term of the
    completed series up to the phase e^{2 pi i Re(tau) Q}.  Every term is
    then screened by what it adds to the sum.  A window row whose bound
    (|w| + |w_offset| + N) e^{amp} on |kernel| e^{amp} (each E2 lies in
    [-1, 1]) is below e^{RHO_LOG_TOL} is skipped and gets 0, as guard-band
    rows do.  eps and the wall terms e_k are taken batch by batch.  The
    rho_j are Gaussian masses of the sign quadrants of the vertex planes
    span(C_j, C_{j+1}), weighted (sigma_1 - s_j)(sigma_2 - s_{j+1}): the
    (row, edge) pairs that pass a margin screen are pooled over consecutive
    batches, about PAIR_BLOCK pairs at a time, which bounds the pooled
    temporaries, and each pool is one errfn.cone_sum call on ngon.frames."""

    def __init__(self, ngon, w_offset=0):
        self.ngon = ngon
        self.w_offset = w_offset
        self.log_bound = math.log(abs(w_invariant(ngon)) + abs(w_offset)
                                  + ngon.n)

    def eval_batches(self, batches, v):
        """One array per batch of kernel values times e^{-2 pi v Q} at
        Im tau = v: evaluated window rows carry their term, skipped window
        rows and guard-band rows 0."""
        if v <= 0:
            raise ValueError("tau must lie in the upper half plane")
        scale = math.sqrt(2.0 * v)
        out, group = [], []
        for i, batch in enumerate(batches):
            group.append((len(batch), *self._row_terms(batch, v, scale)))
            if (sum(len(g[3]) for g in group) < PAIR_BLOCK
                    and i + 1 < len(batches)):
                continue
            # one cone_sum call for the pooled pairs of the group
            pool = (np.concatenate(a) for a in zip(*(g[4] for g in group)))
            rho = cone_sum(self.ngon.frames[0], *pool, cut=-RHO_LOG_TOL)
            start = 0
            for size, live, vals, rows, _ in group:
                o = np.zeros(size)
                o[live] = vals + np.bincount(
                    rows, rho[start:start + len(rows)], minlength=len(vals))
                start += len(rows)
                out.append(o)
            group = []
        return out

    def _row_terms(self, batch, v, scale):
        """The indices `live` of the window rows that pass the row bound,
        their eps and wall terms, the live-row index of each (row, edge)
        pair that passes the rho screen, and the pairs' cone_sum arguments:
        edge, plane centre, quadrant weights and amp."""
        from scipy.special import erfcx
        live = np.flatnonzero(batch.inside)
        amp = np.minimum(-2.0 * math.pi * v * batch.qf[live], AMP_CAP)
        keep = amp + self.log_bound >= RHO_LOG_TOL
        live, amp = live[keep], amp[keep]
        _, proj, chat_g = self.ngon.frames
        signs = self.ngon.sign_matrix(batch.xnum[live])
        xf = batch.xf[live]
        tmat = scale * (xf @ chat_g.T)                 # tau_k margins
        vals = (self.ngon.kernel(signs) + self.w_offset).astype(float) \
            * np.exp(amp)
        # wall terms: (s_{k-1}+s_{k+1}) * (erf(sqrt(pi) tau_k) - s_k) * e^{amp}
        coef = np.roll(signs, 1, axis=1) + np.roll(signs, -1, axis=1)
        with np.errstate(over='ignore'):
            ek = np.where(
                signs != 0,
                -signs * erfcx(math.sqrt(math.pi) * np.abs(tmat))
                * np.exp(np.minimum(amp[:, None] - math.pi * tmat ** 2, AMP_CAP)),
                0.0)
        vals += np.sum(coef * ek, axis=1)
        # rho terms: signed Gaussian cone masses.  A cone with nonzero weight
        # flips every wall carrying a nonzero sign, so its distance from the
        # Gaussian center is at least the larger signed-wall margin.
        eff = np.where(signs != 0, np.abs(tmat), 0.0)
        teff = np.maximum(eff, np.roll(eff, -1, axis=1))
        rows, edges = np.nonzero(amp[:, None] - math.pi * teff ** 2
                                 > RHO_LOG_TOL)
        u = scale * np.einsum('pij,pj->pi', proj[edges], xf[rows])
        ends = signs[rows[:, None], (edges[:, None] + [0, 1]) % self.ngon.n]
        weight = np.prod(SIGNS[:4, 1:] - ends[:, None], axis=2)
        return live, vals, rows, (edges, u, weight, amp[rows])


def completion_eval(coset, ngon, tau, nmax, window=None, w_offset=0):
    """Value of the completed series at tau for one coset, with a tail
    estimate: (value, tail)."""
    _check_space(coset.space, ngon)
    if window is None:
        window = certify_window(coset.space, ngon, None, nmax)
    batch = enumerate_coset(coset, window, GUARD)
    scaled, = _CompletionKernel(ngon, w_offset).eval_batches([batch], tau.imag)
    return _completion_sum(batch, scaled, window, ngon.n, tau)


def _completion_sum(batch, scaled, window, n_edges, tau):
    """(value, tail) at tau of one coset from the terms `scaled` of its
    batch at v = Im tau (eval_batches: kernel times e^{-2 pi v Q}, 0 on the
    rows it skips), which depend on tau only through v: each is multiplied
    by its phase e^{2 pi i Re(tau) Q}."""
    terms = scaled * np.exp(2j * math.pi * tau.real * batch.qf)
    return complex(np.sum(terms)), _tail_estimate(batch, window, n_edges,
                                                  tau.imag)


def _tail_estimate(batch, window, n_edges, v):
    """Heuristic tail bound 2N * sum_{(x,x)_{z0} > B} e^{-pi v (x,x)_{z0}/kappa},
    with the lattice-point density calibrated from the enumerated ball."""
    from scipy.special import gammaincc, gamma as gamma_fn
    m = batch.xnum.shape[1] if len(batch) else 1
    bf = float(window.B)
    count = max(len(batch), 1)
    c = count * (m / 2.0) / max(bf, 1.0) ** (m / 2.0)
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
S_PAIRING_SIGN = +1


def weil_matrices(space):
    """(T diagonal, S matrix) of the finite quadratic module L∨/L."""
    reps = disc_group(space)
    d = len(reps)
    p, q = space.sig
    tdiag = np.array([cmath.exp(2j * math.pi * float(space.q(mu)))
                      for mu in reps])
    phase = cmath.exp(2j * math.pi * (q - p) / 8.0)
    # representatives R/den as integer rows: (mu, nu) = (R G R^T)/den^2 for
    # the integer Gram G = space._gi of a lattice, whose float quotient is
    # the correctly rounded float of the exact pairing
    den = math.lcm(*(c.denominator for mu in reps for c in mu))
    r = np.array([[int(c * den) for c in mu] for mu in reps], dtype=np.int64)
    pair = r @ np.array(space._gi, dtype=np.int64) @ r.T / (den * den)
    s = np.exp(2j * math.pi * S_PAIRING_SIGN * pair)
    s *= phase / math.sqrt(d)
    return reps, tdiag, s


def negation_index(reps):
    """For each representative mu of disc_group (entries in [0,1)), the
    index of -mu among them."""
    index = {mu: i for i, mu in enumerate(reps)}
    return [index[tuple(-c % 1 for c in mu)] for mu in reps]


def weil_sanity(space, weil=None):
    """Return (unitarity defect, S^2-composition defect); both should be ~0.
    `weil` may pass the (reps, T, S) that weil_matrices(space) returned."""
    reps, _, s = weil or weil_matrices(space)
    d = len(reps)
    uni = float(np.max(np.abs(s @ s.conj().T - np.eye(d))))
    # S^2 = phase^2 * permutation mu -> -mu
    perm = np.zeros((d, d))
    perm[negation_index(reps), np.arange(d)] = 1.0
    p, q = space.sig
    ph2 = cmath.exp(2j * math.pi * (q - p) / 4.0)
    comp = float(np.max(np.abs(s @ s - ph2 * perm)))
    return uni, comp


def modularity_check(space, ngon, tau, nmax, w_offset=0):
    """Compare the completion vector at tau+1 and -1/tau against the finite
    Weil transform; returns a report dict.  The completion kernel is even
    (eps, the wall terms and the rho masses are invariant under x -> -x,
    and so is the window), so theta_{-mu} = theta_mu: only the cosets mu_i
    with i <= index(-mu_i) are enumerated and evaluated, and each value
    fills both entries of its +-mu pair."""
    _check_space(space, ngon)
    reps, tdiag, smat = weil = weil_matrices(space)
    m = space.dim
    window = certify_window(space, ngon, None, nmax)
    kern = _CompletionKernel(ngon, w_offset)
    neg = negation_index(reps)
    own = [i for i, j in enumerate(neg) if i <= j]
    pair = np.searchsorted(own, np.minimum(np.arange(len(reps)), neg))
    batches = [enumerate_coset(LatticeCoset(space, reps[i]), window, GUARD)
               for i in own]
    scaled = {}     # Im tau -> kernel values per coset; tau, tau+1 share them

    def theta_vec(t):
        if t.imag not in scaled:
            scaled[t.imag] = kern.eval_batches(batches, t.imag)
        vals, tails = zip(*(_completion_sum(b, k, window, ngon.n, t)
                            for b, k in zip(batches, scaled[t.imag])))
        return np.array(vals)[pair], max(tails)

    base, tail0 = theta_vec(tau)
    shifted, tail1 = theta_vec(tau + 1)
    t_defect = float(np.max(np.abs(shifted - tdiag * base)))
    inverted, tail2 = theta_vec(-1 / tau)
    auto = tau ** (m / 2.0)
    s_defect = float(np.max(np.abs(inverted - auto * (smat @ base))))
    uni, comp = weil_sanity(space, weil)
    return {
        "t_defect": t_defect,
        "s_defect": s_defect,
        "tail": max(tail0, tail1, tail2),
        "weil_unitarity": uni,
        "weil_composition": comp,
        "theta": base,
    }
