"""Half-form densities for the family of Kahler polarizations.

The polarization with parameter s > 0 identifies T*K with the complex
group through x e^{isY}.  Its canonical-bundle trivialization carries the
density |Omega_s|^2 = s^n eta(sY)^2, where eta is the Ad-invariant
Jacobian of the exponential map.  The pairing of two such half-form
trivializations produces the wedge density, which this module computes
two independent ways: the closed form |Omega_{(s+s')/2}|^2 and the
2n x 2n determinant of exponentials of ad_Y that defines it.  The ratio
phi(s, s', Y) of the wedge density to the geometric mean of the two
endpoint densities is the factor by which the prequantum BKS map fails
to be parallel transport; its criticality at s = s' is checked by finite
differences.

eta, |Omega_s|^2, the wedge density and phi take one algebra vector of
shape ``(dim,)`` and return a float, or a batch of shape ``(N, dim)``
and return an ``(N,)`` array.
"""

from __future__ import annotations

import mpmath
import numpy as np

from .groups import GroupSpec, ad_matrix, root_values

__all__ = [
    "eta",
    "eta_from_roots",
    "omega_norm_sq",
    "phi",
    "phi_flatness_residual",
    "wedge_density",
    "wedge_density_det",
]

_SINHC_SERIES_RADIUS = 1e-4


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


def _exp_and_phi1(A: mpmath.matrix, t: float) -> tuple[mpmath.matrix, mpmath.matrix]:
    """e^{-itA} together with (1 - e^{-itA}) A^{-1} = it*phi1(-itA).

    phi1(z) = (e^z - 1)/z is entire, so the kernel directions of A are
    handled exactly.  Both functions are evaluated by truncated series
    when the scaled norm is below 1e-3 and otherwise by scaling and
    squaring, phi1 through the doubling identity
    phi1(2A) = phi1(A)(e^A + 1)/2.
    """
    d = A.rows
    arg = (-1j * t) * A
    norm = mpmath.mnorm(arg, 1)
    k = 0
    while norm > 1e-3:
        norm *= 0.5
        k += 1
    As = arg / (2**k)
    eye = mpmath.eye(d)
    exp_s = mpmath.zeros(d)
    phi_s = mpmath.zeros(d)
    term = mpmath.eye(d)
    nterms = max(12, int(mpmath.mp.dps / 2.5))
    for j in range(1, nterms + 1):
        exp_s += term
        phi_s += term / (j)
        term = term * As / j
    exp_s += term
    E, P = exp_s, phi_s
    for _ in range(k):
        P = P * (E + eye) / 2
        E = E * E
    return E, (1j * t) * P


def wedge_density_det(group: GroupSpec, s: float, s_prime: float, Y) -> complex:
    """Wedge density from its defining 2n x 2n determinant.

    Builds M_t = e^{-it ad_Y} and N_t = (1 - e^{-it ad_Y}) ad_Y^{-1} and
    evaluates det[[conj(M_s), conj(N_s)], [M_{s'}, N_{s'}]] normalized
    by b = (2i)^n(-1)^{n(n-1)/2}.  The imaginary part vanishes up to
    roundoff and the real part reproduces wedge_density.

    The determinant sits far below the size of its largest entries (the
    blocks grow like e^{t alpha(Y)} while the result only grows like the
    square root of a product of such factors), so the whole evaluation
    runs in extended precision sized from the exponent budget
    (s+s')*sum |alpha(Y)|; in double precision the cancellation destroys
    all significant digits once t*alpha(Y) passes roughly 18.
    """
    if s <= 0.0 or s_prime <= 0.0:
        raise ValueError("determinant route requires s, s' > 0")
    A = ad_matrix(group, Y)
    n = group.dim
    exponent_budget = (s + s_prime) * float(np.sum(np.abs(root_values(group, Y))))
    dps = 40 + int(0.6 * exponent_budget)
    with mpmath.workdps(dps):
        Amp = mpmath.matrix(A.tolist())
        Ms, Ns = _exp_and_phi1(Amp, s)
        Mp, Np = _exp_and_phi1(Amp, s_prime)
        big = mpmath.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                big[i, j] = mpmath.conj(Ms[i, j])
                big[i, n + j] = mpmath.conj(Ns[i, j])
                big[n + i, j] = Mp[i, j]
                big[n + i, n + j] = Np[i, j]
        det = mpmath.det(big)
        sign = (-1) ** (n * (n - 1) // 2)
        b = mpmath.mpc(2j) ** n * sign
        return complex(det * sign / b)


def phi(group: GroupSpec, s: float, s_prime: float, Y):
    """Prequantum pairing factor |Omega_{(s+s')/2}|^2 / (|Omega_s||Omega_s'|)."""
    if s <= 0.0 or s_prime <= 0.0:
        raise ValueError("phi requires s, s' > 0")
    # the root values of tY are t times those of Y, so one eigen-solve of
    # ad_Y serves all three densities |Omega_t|^2 = t^n eta(tY)^2
    rv = root_values(group, Y)

    def density(t):
        return t**group.dim * eta_from_roots(t * rv) ** 2

    num = density(0.5 * (s + s_prime))
    den = np.sqrt(density(s) * density(s_prime))
    return _scalar_or_array(num / den)


def phi_flatness_residual(group: GroupSpec, s: float, Y, h: float) -> float:
    """Central-difference estimate of d(phi)/ds' at s' = s; O(h^2) small.

    The vanishing of this derivative is the statement that the prequantum
    BKS maps induce a flat connection in the polarization parameter.
    """
    if h <= 0.0 or s - h <= 0.0:
        raise ValueError("need 0 < h < s")
    return (phi(group, s, s + h, Y) - phi(group, s, s - h, Y)) / (2.0 * h)
