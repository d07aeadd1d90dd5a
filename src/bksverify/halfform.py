"""Half-form densities for the family of Kahler polarizations.

The polarization with parameter s > 0 identifies T*K with the complex
group through x e^{isY}.  Its canonical-bundle trivialization carries the
density |Omega_s|^2 = s^n eta(sY)^2, where eta is the Ad-invariant
Jacobian of the exponential map.  The pairing of two such half-form
trivializations produces the wedge density, which this module computes
two independent ways: the closed form |Omega_{(s+s')/2}|^2 from the root
values, and the determinant of exponentials of ad_Y that defines it.
Because the blocks of that 2n x 2n determinant commute, it reduces to
the n x n determinant of N_{s+s'} = (1 - e^{-i(s+s')ad_Y}) ad_Y^{-1},
which is evaluated in complex fixed point on Python integers with an
exact Bareiss determinant: the result is many orders of magnitude below
the entries, so double precision cancels to noise.  Its series run at
1-norm at most 1 with as many terms as keep the omitted tail below a
quarter of one fixed-point unit.  The ratio
phi(s, s', Y) of the wedge density to the geometric mean of the two
endpoint densities is the factor by which the prequantum BKS map fails
to be parallel transport; its criticality at s = s' is checked by finite
differences.

eta, |Omega_s|^2, the wedge density and phi take one algebra vector of
shape ``(dim,)`` and return a float, or a batch of shape ``(N, dim)``
and return an ``(N,)`` array; the determinant route returns a complex
number or an ``(N,)`` complex array.  |Omega_s|^2, both wedge routes,
phi and the phi-flatness residual also take s and s' per row of a batch.
"""

from __future__ import annotations

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


def omega_norm_sq(group: GroupSpec, s, Y):
    """Half-form density |Omega_s|^2 = s^n eta(sY)^2.

    s is one parameter or one per row of a batch Y.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("polarization parameter s must be positive")
    Y = np.asarray(Y, dtype=float)
    # Python's power element by element: numpy's vectorized power can
    # differ from it in the last bit, and a sample's density should not
    # depend on the batch it comes in
    s_n = np.vectorize(lambda v: v**group.dim, otypes=[float])(s)
    return _scalar_or_array(s_n * eta(group, s[..., None] * Y) ** 2)


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


# the series for e^z and phi1(z) run at 1-norm at most _SERIES_RADIUS, and
# their omitted tails stay below 2^-_SERIES_GUARD fixed-point units
_SERIES_RADIUS = 1.0
_SERIES_GUARD = 2


def _series_terms(bits: int) -> int:
    """Smallest m with r^(m+1)/(m+1)! e^r <= 2^-(bits + guard), r the radius.

    For |z|_1 <= r the tail of e^z past z^m/m! is at most
    sum_{j>m} r^j/j! <= r^(m+1)/(m+1)! e^r, and the tail of phi1(z) past
    z^(m-1)/m! is at most r^m/(m+1)! e^r, which r >= 1 keeps under the
    same bound.
    """
    r = _SERIES_RADIUS
    log_bound = -(bits + _SERIES_GUARD) * math.log(2.0)
    m = 0
    while (m + 1) * math.log(r) - math.lgamma(m + 2) + r > log_bound:
        m += 1
    return m


def _cmul(x, y, shift):
    """Product of two stacks of complex fixed-point matrices, shifted right.

    Three real products instead of four: xr yi + xi yr is taken as
    (xr + xi)(yr + yi) - xr yr - xi yi, exact on integers.
    """
    (xr, xi), (yr, yi) = x, y
    rr, ii = xr @ yr, xi @ yi
    return (rr - ii) >> shift, ((xr + xi) @ (yr + yi) - rr - ii) >> shift


def _series(B, eye, shift, nterms):
    """e^{iB} and phi1(iB) as pairs (re, im) of fixed-point stacks.

    Matrix i of the stack takes the terms up to B^m/m! of e^{iB} and up to
    B^(m-1)/m! of phi1(iB), m = nterms[i]; nterms must not increase along
    the stack, so the matrices still taking terms are a leading slice.
    """
    # the series term B^m/m! carries the unit i^m: sort the terms by
    # m mod 4 and assemble re and im at the end
    exp_parts = [0 * eye for _ in range(4)]
    phi_parts = [0 * eye for _ in range(4)]
    term = eye.copy()
    live = len(nterms)
    for j in range(1, nterms[0] + 1):
        exp_parts[(j - 1) % 4][:live] += term[:live]
        live = np.count_nonzero(nterms >= j)
        phi_parts[(j - 1) % 4][:live] += term[:live] // j
        term[:live] = ((term[:live] @ B[:live]) >> shift[:live]) // j
    exp_parts[nterms[0] % 4][:live] += term[:live]
    E = (exp_parts[0] - exp_parts[2], exp_parts[1] - exp_parts[3])
    F = (phi_parts[0] - phi_parts[2], phi_parts[1] - phi_parts[3])
    return E, F


def _to_fixed(v: float, bits: int) -> int:
    """int(v * 2^bits) taken exactly, also where v * 2^bits leaves float
    range; v = p/q with q a power of two, so // truncates like int()."""
    p, q = v.as_integer_ratio()
    m = (abs(p) << bits) // q
    return m if p >= 0 else -m


def _n_matrix(
    A: np.ndarray, t: np.ndarray, bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """N_t = (1 - e^{-itA}) A^{-1} = it*phi1(-itA) in complex fixed point.

    A is a stack ``(N, n, n)``, t and bits one value per matrix.
    phi1(z) = (e^z - 1)/z is entire, so the kernel directions of A are
    handled exactly.  z = -itA is scaled by 2^-k to 1-norm at most
    r = _SERIES_RADIUS, with one k for the whole stack, where e^z and
    phi1(z) are truncated series of m = _series_terms(bits) terms, m of
    each matrix's own: the omitted tail is at most r^(m+1)/(m+1)! e^r <=
    2^-(bits+2), a quarter of one fixed-point unit, below the rounding of
    each product.  k doublings phi1(2z) = phi1(z)(e^z + 1)/2 and
    e^{2z} = (e^z)^2 undo the scaling.  Returns the pair (re, im) of
    integer stacks, each matrix scaled by 2^bits of its own.
    """
    norm = float(np.max(t * np.abs(A).sum(axis=-2).max(axis=-1)))
    k = 0
    while norm > _SERIES_RADIUS:
        norm *= 0.5
        k += 1
    # matrices in order of falling term count, so that those still taking
    # terms are a leading slice of the stack
    order = np.argsort(-bits, kind="stable")
    A, t, bits = A[order], t[order], bits[order]
    nterms = np.array([_series_terms(b) for b in bits.tolist()])
    shift = bits.astype(object)[:, None, None]
    to_fixed = np.frompyfunc(_to_fixed, 2, 1)
    t_fixed = to_fixed(t[:, None, None], shift)
    eye = np.zeros(A.shape, dtype=object)
    diag = np.arange(A.shape[-1])
    eye[:, diag, diag] = np.left_shift(1, shift[:, :, 0])
    # z / 2^k = iB with B real; B is not kept past the series
    E, F = _series((to_fixed(A, shift) * -t_fixed) >> (shift + k), eye, shift, nterms)
    for i in range(k):
        F = _cmul(F, (E[0] + eye, E[1]), shift + 1)
        if i + 1 < k:
            E = _cmul(E, E, shift)
    back = np.argsort(order)
    return ((-F[1] * t_fixed) >> shift)[back], ((F[0] * t_fixed) >> shift)[back]


def _gaussian_det(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact determinants of a stack of Gaussian-integer matrices re + i im.

    Bareiss fraction-free elimination (Math. Comp. 22, 1968): every
    division by the previous pivot is exact in the Gaussian integers, so
    no rounding enters after the matrices are formed.  A matrix whose
    pivot is zero swaps rows on its own; one with no nonzero entry left in
    the pivot column is singular, takes pivot 1 to keep the stack going,
    and gets determinant 0.  Returns (re, im) object arrays of shape (N,).
    """
    re, im = re.copy(), im.copy()
    N, n = re.shape[0], re.shape[-1]
    sign = np.ones(N, dtype=object)
    singular = np.zeros(N, dtype=bool)
    qr, qi = 1, 0
    for k in range(n - 1):
        nonzero = (re[:, k:, k] != 0) | (im[:, k:, k] != 0)
        for i in np.flatnonzero(~nonzero[:, 0]):
            rows = np.flatnonzero(nonzero[i])
            if rows.size == 0:
                singular[i] = True
                re[i, k, k] = 1
                continue
            r = k + rows[0]
            re[i, [k, r]] = re[i, [r, k]]
            im[i, [k, r]] = im[i, [r, k]]
            sign[i] = -sign[i]
        pr, pi = re[:, k:k + 1, k:k + 1], im[:, k:k + 1, k:k + 1]
        cr, ci = re[:, k + 1:, k:k + 1], im[:, k + 1:, k:k + 1]
        rr, ri = re[:, k:k + 1, k + 1:], im[:, k:k + 1, k + 1:]
        ar, ai = re[:, k + 1:, k + 1:], im[:, k + 1:, k + 1:]
        nr = pr * ar - pi * ai - (cr * rr - ci * ri)
        ni = pr * ai + pi * ar - (cr * ri + ci * rr)
        # divide by the previous pivot q: multiply by conj(q), divide by |q|^2
        q2 = qr * qr + qi * qi
        re[:, k + 1:, k + 1:] = (nr * qr + ni * qi) // q2
        im[:, k + 1:, k + 1:] = (ni * qr - nr * qi) // q2
        qr, qi = pr, pi
    sign[singular] = 0
    return sign * re[:, n - 1, n - 1], sign * im[:, n - 1, n - 1]


def wedge_density_det(group: GroupSpec, s, s_prime, Y):
    """Wedge density from its defining determinant, without the root values.

    The definition is (-1)^{n(n-1)/2} det[[conj(M_s), conj(N_s)],
    [M_{s'}, N_{s'}]] / b with M_t = e^{-itA}, N_t = (1 - e^{-itA}) A^{-1},
    A = ad_Y and b = (2i)^n(-1)^{n(n-1)/2}.  A is real, so the four blocks
    are functions of A and commute; the 2n x 2n determinant is then
    det(conj(M_s) N_{s'} - conj(N_s) M_{s'}) = det(e^{isA} N_{s+s'}),
    and det e^{isA} = e^{is tr A} = 1 because A is traceless.  The two
    signs cancel, so the result is det N_{s+s'} / (2i)^n.  The imaginary
    part vanishes up to roundoff and the real part reproduces
    wedge_density.  ad_Y is never diagonalised; the root values only size
    the precision.

    det N_t cancels heavily: each root pair contributes a 2 x 2 block
    whose entries grow like e^{t alpha(Y)} while its determinant is only
    about e^{t alpha(Y)} / alpha(Y)^2.  In double precision (expm of an
    augmented matrix, then an LU determinant) the relative error on SU(2)
    is about 1e-8 at t*alpha(Y) = 20 and 0.7 at 37, while the suite samples
    t*alpha(Y) up to about 100.  N_t is therefore formed in complex fixed
    point, pairs of Python-integer matrices scaled by 2^bits with bits
    sized per sample from the exponent budget (s+s')*sum |alpha(Y)|, and
    its determinant is taken exactly by Bareiss elimination; the only
    roundings are those of the fixed-point products and the final
    int/int division.  On tori A = 0 and, for t >= 2^-28, N_t is exactly
    it, so the result equals wedge_density bit for bit.

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
    # the determinant cancels at most e^{budget} of its entries' size; 80
    # guard bits on top of that leave the result at double precision
    exponent_budget = t * np.sum(np.abs(root_values(group, Ys)), axis=-1)
    bits = np.array([80 + math.ceil(b / math.log(2)) for b in exponent_budget])
    dr, di = _gaussian_det(*_n_matrix(ad_matrix(group, Ys), t, bits))
    # divide by (2i)^n: rotate by (-i)^n, then scale by 2^-n with the 2^-bits*n
    dr, di = ((dr, di), (di, -dr), (-dr, -di), (-di, dr))[n % 4]
    scales = [1 << ((b + 1) * n) for b in bits.tolist()]
    out = np.array([complex(r / q, i / q) for r, i, q in zip(dr, di, scales)])
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
