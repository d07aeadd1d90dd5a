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
the entries, so double precision cancels to noise.  The ratio
phi(s, s', Y) of the wedge density to the geometric mean of the two
endpoint densities is the factor by which the prequantum BKS map fails
to be parallel transport; its criticality at s = s' is checked by finite
differences.

eta, |Omega_s|^2, the wedge density and phi take one algebra vector of
shape ``(dim,)`` and return a float, or a batch of shape ``(N, dim)``
and return an ``(N,)`` array.
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


def omega_norm_sq(group: GroupSpec, s: float, Y):
    """Half-form density |Omega_s|^2 = s^n eta(sY)^2."""
    if s <= 0.0:
        raise ValueError("polarization parameter s must be positive")
    Y = np.asarray(Y, dtype=float)
    return s**group.dim * eta(group, s * Y) ** 2


def wedge_density(group: GroupSpec, s: float, s_prime: float, Y):
    """Closed form of the half-form wedge density, |Omega_{(s+s')/2}|^2.

    s' = 0 is admitted for the vertical-limit path; both parameters zero
    is rejected.
    """
    if s < 0.0 or s_prime < 0.0 or s + s_prime <= 0.0:
        raise ValueError("need s, s' >= 0 with s + s' > 0")
    return omega_norm_sq(group, 0.5 * (s + s_prime), Y)


def _cmul(x, y, shift: int):
    """Product of two complex fixed-point matrices (re, im), shifted right."""
    (xr, xi), (yr, yi) = x, y
    return (xr @ yr - xi @ yi) >> shift, (xr @ yi + xi @ yr) >> shift


def _n_matrix(
    A: np.ndarray, t: float, bits: int, nterms: int
) -> tuple[np.ndarray, np.ndarray]:
    """N_t = (1 - e^{-itA}) A^{-1} = it*phi1(-itA) in complex fixed point.

    phi1(z) = (e^z - 1)/z is entire, so the kernel directions of A are
    handled exactly.  z = -itA is scaled by 2^-k to 1-norm at most 1e-3,
    where e^z and phi1(z) are truncated series; k doublings
    phi1(2z) = phi1(z)(e^z + 1)/2 and e^{2z} = (e^z)^2 undo the scaling.
    Returns the pair (re, im) of integer matrices scaled by 2^bits.
    """
    norm = t * float(np.abs(A).sum(axis=0).max())
    k = 0
    while norm > 1e-3:
        norm *= 0.5
        k += 1
    # ldexp only moves the exponent, so t and every entry of A above
    # 2^(52 - bits) in size convert exactly; z / 2^k = iB with B real
    t_fixed = int(math.ldexp(t, bits))
    A_fixed = np.frompyfunc(lambda a: int(math.ldexp(a, bits)), 1, 1)(A)
    B = (A_fixed * -t_fixed) >> (bits + k)
    # the series term B^m/m! carries the unit i^m: sort the terms by
    # m mod 4 and assemble re and im at the end
    eye = np.diag([1 << bits] * A.shape[0]).astype(object)
    exp_parts = [0 * eye for _ in range(4)]
    phi_parts = [0 * eye for _ in range(4)]
    term = eye
    for j in range(1, nterms + 1):
        exp_parts[(j - 1) % 4] += term
        phi_parts[(j - 1) % 4] += term // j
        term = ((term @ B) >> bits) // j
    exp_parts[nterms % 4] += term
    E = (exp_parts[0] - exp_parts[2], exp_parts[1] - exp_parts[3])
    F = (phi_parts[0] - phi_parts[2], phi_parts[1] - phi_parts[3])
    for _ in range(k):
        F = _cmul(F, (E[0] + eye, E[1]), bits + 1)
        E = _cmul(E, E, bits)
    return (-F[1] * t_fixed) >> bits, (F[0] * t_fixed) >> bits


def _gaussian_det(re: np.ndarray, im: np.ndarray) -> tuple[int, int]:
    """Exact determinant of the Gaussian-integer matrix re + i im.

    Bareiss fraction-free elimination (Math. Comp. 22, 1968): every
    division by the previous pivot is exact in the Gaussian integers, so
    no rounding enters after the matrix is formed.
    """
    re, im = re.copy(), im.copy()
    n = re.shape[0]
    sign = 1
    qr, qi = 1, 0
    for k in range(n - 1):
        rows = [r for r in range(k, n) if re[r, k] or im[r, k]]
        if not rows:
            return 0, 0
        if rows[0] != k:
            re[[k, rows[0]]] = re[[rows[0], k]]
            im[[k, rows[0]]] = im[[rows[0], k]]
            sign = -sign
        pr, pi = re[k, k], im[k, k]
        cr, ci = re[k + 1:, k:k + 1], im[k + 1:, k:k + 1]
        rr, ri = re[k:k + 1, k + 1:], im[k:k + 1, k + 1:]
        ar, ai = re[k + 1:, k + 1:], im[k + 1:, k + 1:]
        nr = pr * ar - pi * ai - (cr * rr - ci * ri)
        ni = pr * ai + pi * ar - (cr * ri + ci * rr)
        # divide by the previous pivot q: multiply by conj(q), divide by |q|^2
        q2 = qr * qr + qi * qi
        re[k + 1:, k + 1:] = (nr * qr + ni * qi) // q2
        im[k + 1:, k + 1:] = (ni * qr - nr * qi) // q2
        qr, qi = pr, pi
    return sign * re[n - 1, n - 1], sign * im[n - 1, n - 1]


def wedge_density_det(group: GroupSpec, s: float, s_prime: float, Y) -> complex:
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
    sized from the exponent budget (s+s')*sum |alpha(Y)|, and its
    determinant is taken exactly by Bareiss elimination; the only
    roundings are those of the fixed-point products and the final
    int/int division.  On tori A = 0 and, for t >= 2^-28, N_t is exactly
    it, so the result equals wedge_density bit for bit.
    """
    if s <= 0.0 or s_prime <= 0.0:
        raise ValueError("determinant route requires s, s' > 0")
    A = ad_matrix(group, Y)
    n = group.dim
    t = s + s_prime
    # the determinant cancels at most e^{budget} of its entries' size; 80
    # guard bits on top of that leave the result at double precision, and
    # each series term at 1-norm 1e-3 gains at least 10 bits
    exponent_budget = t * float(np.sum(np.abs(root_values(group, Y))))
    bits = 80 + math.ceil(exponent_budget / math.log(2))
    dr, di = _gaussian_det(*_n_matrix(A, t, bits, max(12, bits // 8)))
    # divide by (2i)^n: rotate by (-i)^n, then scale by 2^-n with the 2^-bits*n
    dr, di = ((dr, di), (di, -dr), (-dr, -di), (-di, dr))[n % 4]
    scale = 1 << ((bits + 1) * n)
    return complex(dr / scale, di / scale)


def phi(group: GroupSpec, s: float, s_prime: float, Y):
    """Prequantum pairing factor |Omega_{(s+s')/2}|^2 / (|Omega_s||Omega_s'|)."""
    if s <= 0.0 or s_prime <= 0.0:
        raise ValueError("phi requires s, s' > 0")
    # the root values of tY are t times those of Y, so one eigen-solve of
    # ad_Y serves all three densities |Omega_t|^2 = t^n eta(tY)^2; they are
    # taken as logs, since eta(tY)^2 leaves float range long before phi
    t = np.array([0.5 * (s + s_prime), s, s_prime])
    rv = root_values(group, Y)
    log_density = (
        group.dim * np.log(t).reshape((3,) + (1,) * (rv.ndim - 1))
        + 2.0 * np.sum(log_sinhc(np.multiply.outer(t, rv)), axis=-1)
    )
    mid, at_s, at_sp = log_density
    return _scalar_or_array(np.exp(mid - 0.5 * (at_s + at_sp)))


def phi_flatness_residual(group: GroupSpec, s: float, Y, h: float) -> float:
    """Central-difference estimate of d(phi)/ds' at s' = s; O(h^2) small.

    The vanishing of this derivative is the statement that the prequantum
    BKS maps induce a flat connection in the polarization parameter.
    """
    if h <= 0.0 or s - h <= 0.0:
        raise ValueError("need 0 < h < s")
    return (phi(group, s, s + h, Y) - phi(group, s, s - h, Y)) / (2.0 * h)
