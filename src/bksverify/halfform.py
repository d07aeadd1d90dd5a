"""Half-form densities for the family of Kahler polarizations.

The polarization with parameter s > 0 identifies T*K with the complex
group through x e^{isY}.  Its canonical-bundle trivialization carries the
density |Omega_s|^2 = s^n eta(sY)^2, where eta is the Ad-invariant
Jacobian of the exponential map.  The pairing of two such half-form
trivializations produces the wedge density, which this module computes
two independent ways: the closed form |Omega_{(s+s')/2}|^2 from the root
values, and the determinant of exponentials of ad_Y that defines it.
Because the blocks of that 2n x 2n determinant commute, it reduces to
the n x n determinant of N_t = (1 - e^{-it ad_Y}) ad_Y^{-1}, t = s + s',
and, with the factor e^{W} of determinant 1 split off, to
(t/2)^n det sinh(W)/W with W = -i(t/2) ad_Y.  W^2 is real, symmetric and
positive semidefinite, so sinh(W)/W is a real series in W^2.  It is
evaluated in real fixed point on Python integers, at 1-norm at most 1
with as many terms as keep the omitted tail below a quarter of one
fixed-point unit, then doubled back with cosh W alongside, and its
determinant is taken exactly by Bareiss elimination: the result is many
orders of magnitude below the entries, so double precision cancels to
noise.  The eigenvalues of sinh(W)/W are at least 1, which sizes the
precision: 80 bits plus (t/2) sum |alpha(Y)| / ln 2.  The ratio
phi(s, s', Y) of the wedge density to the geometric mean of the two
endpoint densities is the factor by which the prequantum BKS map fails
to be parallel transport; its criticality at s = s' is checked by finite
differences.

eta, |Omega_s|^2, the wedge density and phi take one algebra vector of
shape ``(dim,)`` and return a float, or a batch of shape ``(N, dim)``
and return an ``(N,)`` array; the determinant route returns a complex
number or an ``(N,)`` complex array, with imaginary part exactly 0.
|Omega_s|^2, both wedge routes, phi and the phi-flatness residual also
take s and s' per row of a batch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .groups import GroupSpec, ad_matrix, root_values

__all__ = [
    "eta",
    "eta_from_roots",
    "log_sinhc",
    "omega_norm_sq",
    "phi",
    "phi_flatness_residual",
    "wedge_density",
    "wedge_density_det",
]

_SINHC_SERIES_RADIUS = 1e-4
# sinh leaves float range just past 710; beyond this radius log sinhc is
# taken in log space
_SINHC_LOG_RADIUS = 700.0


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, even and entire; series below the crossover radius."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINHC_SERIES_RADIUS
    out = np.empty_like(x)
    xs = x[small]
    out[small] = 1.0 + xs * xs / 6.0 * (1.0 + xs * xs / 20.0)
    xl = x[~small]
    out[~small] = np.sinh(xl) / xl
    return out


def log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x)/x), finite where sinh overflows.

    Past ``|x| = 700`` it is |x| + log1p(-e^{-2|x|}) - log(2|x|); below,
    the log of ``_sinhc``.
    """
    x = np.asarray(x, dtype=float)
    big = np.abs(x) > _SINHC_LOG_RADIUS
    out = np.empty_like(x)
    out[~big] = np.log(_sinhc(x[~big]))
    xb = np.abs(x[big])
    out[big] = xb + np.log1p(-np.exp(-2.0 * xb)) - np.log(2.0 * xb)
    return out


def _scalar_or_array(x: np.ndarray):
    return float(x) if np.ndim(x) == 0 else x


def eta_from_roots(root_vals: np.ndarray):
    """eta evaluated from the positive-root values alpha(Y).

    The roots run along the last axis; on Cartan vectors H the values
    are simply ``H @ group.positive_roots.T``, no eigen-solve needed.
    """
    prod = np.prod(_sinhc(np.asarray(root_vals, dtype=float)), axis=-1)
    return _scalar_or_array(prod)


def eta(group: GroupSpec, Y):
    """Jacobian factor prod_{alpha>0} sinh(alpha(Y))/alpha(Y) >= 1.

    Ad-invariant; the root values are read off the spectrum of ad_Y, so Y
    may sit anywhere in the algebra, not just the Cartan subalgebra.  Tori
    have no roots, so the empty product gives exactly 1.
    """
    return eta_from_roots(root_values(group, Y))


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x^n by Python's power element by element: numpy's vectorized power
    can differ from it in the last bit, and a sample's density should not
    depend on the batch it comes in."""
    return np.vectorize(lambda v: v**n, otypes=[float])(x)


def omega_norm_sq(group: GroupSpec, s, Y):
    """Half-form density |Omega_s|^2 = s^n eta(sY)^2.

    s is one parameter or one per row of a batch Y.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("polarization parameter s must be positive")
    Y = np.asarray(Y, dtype=float)
    return _scalar_or_array(_power(s, group.dim) * eta(group, s[..., None] * Y) ** 2)


def wedge_density(group: GroupSpec, s, s_prime, Y):
    """Closed form of the half-form wedge density, |Omega_{(s+s')/2}|^2.

    s and s' are one value each or one per row of a batch Y.  s' = 0 is
    admitted for the vertical-limit path; both parameters zero is
    rejected.
    """
    s, s_prime = np.asarray(s, dtype=float), np.asarray(s_prime, dtype=float)
    if np.any(s < 0.0) or np.any(s_prime < 0.0) or np.any(s + s_prime <= 0.0):
        raise ValueError("need s, s' >= 0 with s + s' > 0")
    return omega_norm_sq(group, 0.5 * (s + s_prime), Y)


# the series for cosh and sinh(w)/w run at 1-norm at most _SERIES_RADIUS,
# and their omitted tails stay below 2^-_SERIES_GUARD fixed-point units
_SERIES_RADIUS = 1.0
_SERIES_GUARD = 2


@functools.lru_cache(maxsize=None)
def _series_terms(bits: int) -> int:
    """Smallest m with r^(m+1)/(m+1)! e^r <= 2^-(bits + guard), r the radius.

    For |w|_1 <= r the terms of cosh w and sinh(w)/w past degree m in w
    sum to at most sum_{j>m} r^j/j! <= r^(m+1)/(m+1)! e^r.
    """
    r = _SERIES_RADIUS
    log_bound = -(bits + _SERIES_GUARD) * math.log(2.0)
    m = 0
    while (m + 1) * math.log(r) - math.lgamma(m + 2) + r > log_bound:
        m += 1
    return m


def _to_fixed(v: float, bits: int) -> int:
    """int(v * 2^bits) taken exactly, also where v * 2^bits leaves float
    range; v = p/q with q a power of two, so // truncates like int()."""
    p, q = v.as_integer_ratio()
    m = (abs(p) << bits) // q
    return m if p >= 0 else -m


def _sinhc_matrix(A: np.ndarray, t: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """S = sinh(W)/W with W = -i(t/2)A, in real fixed point.

    A is a stack ``(N, n, n)`` of antisymmetric matrices, t and bits one
    value per matrix.  S is a series in W^2 = -(t/2)^2 A^2, which is real,
    so every step is.  W is scaled by 2^-k to 1-norm at most
    r = _SERIES_RADIUS, with one k for the whole stack, where S and
    C = cosh W take their terms up to degree m = _series_terms(bits) in W,
    m of each matrix's own, one product with W^2/4^k per two degrees: the
    omitted tail is at most 2^-(bits+2), a quarter of one fixed-point unit.
    k doublings S <- S C and C <- 2C^2 - 1 undo the scaling.  Returns an
    integer stack, each matrix scaled by 2^bits of its own.
    """
    norm = 0.5 * float(np.max(t * np.abs(A).sum(axis=-2).max(axis=-1)))
    k = 0
    while norm > _SERIES_RADIUS:
        norm *= 0.5
        k += 1
    # matrices in order of falling term count, so that those still taking
    # terms are a leading slice of the stack
    order = np.argsort(-bits, kind="stable")
    A, t, bits = A[order], t[order], bits[order]
    pairs = np.array([_series_terms(b) // 2 for b in bits.tolist()])
    shift = bits.astype(object)[:, None, None]
    to_fixed = np.frompyfunc(_to_fixed, 2, 1)
    # V = (t / 2^(k+1)) A, so that (W / 2^k)^2 = -V^2
    V = (to_fixed(A, shift) * to_fixed(t[:, None, None], shift)) >> (shift + k + 1)
    B = -(V @ V) >> shift
    eye = np.zeros(A.shape, dtype=object)
    diag = np.arange(A.shape[-1])
    eye[:, diag, diag] = np.left_shift(1, shift[:, :, 0])
    # term j is B^j / (2j)!, the degree-2j term of C; that of S is it / (2j+1)
    S, C, term = 0 * eye, 0 * eye, eye.copy()
    for j in range(pairs[0] + 1):
        live = np.count_nonzero(pairs >= j)
        if j:
            term[:live] = ((term[:live] @ B[:live]) >> shift[:live]) // ((2 * j - 1) * 2 * j)
        C[:live] += term[:live]
        S[:live] += term[:live] // (2 * j + 1)
    for i in range(k):
        S = (S @ C) >> shift
        if i + 1 < k:
            C = ((C @ C) >> (shift - 1)) - eye
    return S[np.argsort(order)]


def _bareiss_det(M: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of integer matrices.

    Bareiss fraction-free elimination (Math. Comp. 22, 1968): every
    division by the previous pivot is exact, so no rounding enters after
    the matrices are formed.  A matrix whose pivot is zero swaps rows on
    its own; one with no nonzero entry left in the pivot column is
    singular, takes pivot 1 to keep the stack going, and gets determinant
    0.  Returns an object array of shape (N,).
    """
    M = M.copy()
    N, n = M.shape[0], M.shape[-1]
    sign = np.ones(N, dtype=object)
    singular = np.zeros(N, dtype=bool)
    prev = 1
    for k in range(n - 1):
        nonzero = M[:, k:, k] != 0
        for i in np.flatnonzero(~nonzero[:, 0]):
            rows = np.flatnonzero(nonzero[i])
            if rows.size == 0:
                singular[i] = True
                M[i, k, k] = 1
                continue
            r = k + rows[0]
            M[i, [k, r]] = M[i, [r, k]]
            sign[i] = -sign[i]
        pivot = M[:, k:k + 1, k:k + 1]
        M[:, k + 1:, k + 1:] = (
            pivot * M[:, k + 1:, k + 1:] - M[:, k + 1:, k:k + 1] * M[:, k:k + 1, k + 1:]
        ) // prev
        prev = pivot
    sign[singular] = 0
    return sign * M[:, n - 1, n - 1]


def wedge_density_det(group: GroupSpec, s, s_prime, Y):
    """Wedge density from its defining determinant, without the root values.

    The definition is (-1)^{n(n-1)/2} det[[conj(M_s), conj(N_s)],
    [M_{s'}, N_{s'}]] / b with M_t = e^{-itA}, N_t = (1 - e^{-itA}) A^{-1},
    A = ad_Y and b = (2i)^n(-1)^{n(n-1)/2}.  A is real, so the four blocks
    are functions of A and commute; the 2n x 2n determinant is then
    det(conj(M_s) N_{s'} - conj(N_s) M_{s'}) = det(e^{isA} N_{s+s'}),
    and det e^{isA} = e^{is tr A} = 1 because A is traceless.  The two
    signs cancel, so the result is det N_t / (2i)^n with t = s + s'.
    N_t = it phi1(Z) with Z = -itA and phi1(z) = (e^z - 1)/z, and
    phi1(Z) = e^{Z/2} sinh(W)/W with W = Z/2; det e^{Z/2} = 1 for the
    same reason, so the result is (t/2)^n det S with S = sinh(W)/W.  In
    the orthonormal basis A is antisymmetric, so W^2 = -(t/2)^2 A^2 is
    real, symmetric and positive semidefinite, and S, a series in W^2, is
    real: the imaginary part of the result is exactly 0 and the real part
    reproduces wedge_density.  ad_Y is never diagonalised; the root values
    only size the precision.

    det S cancels heavily: with x = t alpha(Y)/2, the entries of S grow
    like e^x / x, and the products of n entries the determinant sums are
    far larger than det S itself, sinh(x)^2/x^2 per root pair.  The same
    series and doublings in double precision, then an LU determinant, err
    on SU(2) by about 2e-13 relative at t*alpha(Y) = 20, 1e-5 at 60 and
    more than 100% at 100, while the suite samples t*alpha(Y) up to about
    100.  S is therefore formed in
    real fixed point, Python-integer matrices scaled by 2^bits, and its
    determinant is taken exactly by Bareiss elimination; the only
    roundings are those of the fixed-point products, the final int/int
    division and the product with (t/2)^n.  The bits follow from S being
    symmetric with eigenvalues >= 1: every entry of S^-1 is at most 1 in
    absolute value, so an absolute error e in the entries of S moves
    det S by a relative n^2 e at most.  The k doublings grow the error of
    the scaled series by at most about e^{t max alpha(Y) / 2}, so
    80 + (t/2) sum |alpha(Y)| / ln 2 bits, sized per sample, leave the
    result at double precision.  On tori A = 0, S is exactly 1, and
    (t/2)^n is Python's power as in omega_norm_sq, so the result equals
    wedge_density bit for bit.

    Y of shape ``(dim,)`` gives a complex number, ``(N, dim)`` an ``(N,)``
    complex array; s and s' are one value each or one per row.  The whole
    batch is one pass over ``(N, dim, dim)`` stacks.
    """
    if np.any(np.asarray(s) <= 0.0) or np.any(np.asarray(s_prime) <= 0.0):
        raise ValueError("determinant route requires s, s' > 0")
    Y = np.asarray(Y, dtype=float)
    Ys = np.atleast_2d(Y)
    t = np.broadcast_to(np.asarray(s, dtype=float) + s_prime, Ys.shape[:1])
    n = group.dim
    exponent_budget = 0.5 * t * np.sum(np.abs(root_values(group, Ys)), axis=-1)
    bits = np.array([80 + math.ceil(b / math.log(2)) for b in exponent_budget])
    dets = _bareiss_det(_sinhc_matrix(ad_matrix(group, Ys), t, bits))
    out = (_power(0.5 * t, n) * np.array(
        [d / (1 << (b * n)) for d, b in zip(dets, bits.tolist())])).astype(complex)
    return complex(out[0]) if Y.ndim == 1 else out


def phi(group: GroupSpec, s, s_prime, Y):
    """Prequantum pairing factor |Omega_{(s+s')/2}|^2 / (|Omega_s||Omega_s'|).

    s and s' are one value each or one per row of a batch Y.
    """
    s, s_prime = np.asarray(s, dtype=float), np.asarray(s_prime, dtype=float)
    if np.any(s <= 0.0) or np.any(s_prime <= 0.0):
        raise ValueError("phi requires s, s' > 0")
    # the root values of tY are t times those of Y, so one eigen-solve of
    # ad_Y serves all three densities |Omega_t|^2 = t^n eta(tY)^2; they are
    # taken as logs, since eta(tY)^2 leaves float range long before phi
    rv = root_values(group, Y)
    t = np.stack([np.broadcast_to(v, rv.shape[:-1])
                  for v in (0.5 * (s + s_prime), s, s_prime)])
    log_density = (
        group.dim * np.log(t) + 2.0 * np.sum(log_sinhc(t[..., None] * rv), axis=-1)
    )
    mid, at_s, at_sp = log_density
    return _scalar_or_array(np.exp(mid - 0.5 * (at_s + at_sp)))


def phi_flatness_residual(group: GroupSpec, s, Y, h: float):
    """Central-difference estimate of d(phi)/ds' at s' = s; O(h^2) small.

    s is one value or one per row of a batch Y.  The vanishing of this
    derivative is the statement that the prequantum BKS maps induce a
    flat connection in the polarization parameter.
    """
    s = np.asarray(s, dtype=float)
    if h <= 0.0 or np.any(s - h <= 0.0):
        raise ValueError("need 0 < h < s")
    return (phi(group, s, s + h, Y) - phi(group, s, s - h, Y)) / (2.0 * h)
