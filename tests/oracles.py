"""Reference routes that the tests integrate against, kept out of the package.

Haar rules on the group (a product trapezoid grid on tori, an Euler-angle
rule on SU(2)), the value of a band-limited function at group elements,
the density of the averaged measure nu, the eigen-solve routes to group
elements and root values, SU(3) characters by the Jacobi-Trudi
determinant, the one-sample wedge determinant at 1-norm 1e-3 and the
one-sample phi-flatness loop.  The verifier runs none of them; the tests
use them as independent oracles for Schur orthogonality, the Peter-Weyl
L2 product, the measure normalization, the SU(2) closed forms, the SU(3)
weight table, the batched wedge determinant and the batched phi job.

Group integrands are batched like algebra ones: a stack of N elements
(``(N, rank)`` torus angles or ``(N, 2, 2)`` SU(2) matrices) in, an
``(N,)`` array of values out.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from bksverify import groups, halfform, heat


def torus_rule(group, resolution):
    """Product trapezoid grid on U(1)^rank, as (angles, weights).

    Exact for band limits below the resolution.
    """
    ticks = 2.0 * math.pi * np.arange(resolution) / resolution
    grids = np.meshgrid(*([ticks] * group.rank), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=-1)
    return thetas, np.full(len(thetas), 1.0 / len(thetas))


def euler_rule(resolution):
    """SU(2) Euler-angle rule, as (matrices, weights) of Haar mass 1.

    g = diag(e^{-ia/2}, e^{ia/2}) R_y(b) diag(e^{-ic/2}, e^{ic/2}) with
    a, c trapezoid over [0, 2pi) and [0, 4pi) and cos b Gauss-Legendre;
    nodes in (a, b, c) order.
    """
    r = resolution
    u, wu = leggauss(r)
    half = 0.5 * np.arccos(u)
    cos, sin = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
    za = np.exp(np.multiply.outer(2.0 * math.pi * np.arange(r) / r, [-0.5j, 0.5j]))
    zc = np.exp(np.multiply.outer(4.0 * math.pi * np.arange(r) / r, [-0.5j, 0.5j]))
    g = (za[:, None, None, :, None] * ry[None, :, None]) * zc[None, None, :, None, :]
    weights = np.broadcast_to((wu / (2.0 * r**2))[None, :, None], (r, r, r))
    return g.reshape(-1, 2, 2), weights.ravel()


def integrate_group(f, rule):
    """Normalized-Haar integral of the batched integrand f over a rule."""
    nodes, weights = rule
    return np.dot(weights, f(nodes))


def evaluate_function(f, g):
    """Value of a band-limited function at an element, or at a stack.

    One element (an angle vector on tori, a 2x2 matrix on SU(2)) gives a
    complex number; a stack of N gives an ``(N,)`` array.  Tori and SU(2)
    only, where the package realizes matrix elements.
    """
    total = sum(
        np.einsum("ij,...ij->...", f.blocks[label], heat._irrep_matrices(f.group, label, g))
        for label in f.labels()
    )
    return complex(total) if np.ndim(total) == 0 else total


def nu_density(group, hbar0, s, Y):
    """Density (a_s s^{n/2} eta(Y))^{-1} e^{-|Y|^2/hbar} of the averaged measure.

    In polar coordinates it is constant in the compact direction, so it
    takes only the algebra vector: Y of shape ``(dim,)`` gives a float,
    ``(N, dim)`` an ``(N,)`` array.
    """
    Y = np.asarray(Y, dtype=float)
    norm = heat.a_s(group, hbar0, s) * s ** (group.dim / 2.0) * halfform.eta(group, Y)
    value = np.exp(-np.sum(Y * Y, axis=-1) / (hbar0 * s)) / norm
    return float(value) if value.ndim == 0 else value


def group_exp_eigh(group, Y, factor=1.0):
    """exp(factor * Y) in the defining representation, from eigh of iY.

    Y of shape ``(dim,)`` gives one matrix, ``(N, dim)`` a stack of N.
    """
    A = groups.algebra_element(group, Y)
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * factor * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def root_values_eigvalsh(group, Y):
    """Positive-root values of the Cartan representative of Y, ascending,
    as the top eigenvalues of i ad_Y."""
    eigs = np.linalg.eigvalsh(1j * groups.ad_matrix(group, Y))
    return eigs[..., -group.n_positive_roots:]


def _complete_homogeneous(xs, kmax):
    # h_0..h_kmax of the variables along the last axis of xs
    h = np.zeros(xs.shape[:-1] + (kmax + 1,), dtype=complex)
    h[..., 0] = 1.0
    for i in range(xs.shape[-1]):
        powers = xs[..., i, None] ** np.arange(kmax + 1)
        h = np.stack(
            [np.sum(h[..., : k + 1] * powers[..., k::-1], axis=-1) for k in range(kmax + 1)],
            axis=-1,
        )
    return h


def su3_character_jacobi_trudi(label, g):
    """SU(3) character of Dynkin label (p, q) at defining-representation
    matrices g, from their eigenvalues: the Schur polynomial of the
    partition (p + q, q, 0) as the Jacobi-Trudi determinant in complete
    homogeneous terms.  Never reads the weight table."""
    p, q = label
    eigs = np.linalg.eigvals(np.asarray(g, dtype=complex))
    mu = (p + q, q, 0)
    h = _complete_homogeneous(eigs, p + q + 2)
    zero = np.zeros(h.shape[:-1], dtype=complex)

    def hh(k):
        return h[..., k] if 0 <= k <= p + q + 2 else zero

    mat = np.stack(
        [np.stack([hh(mu[i] - i + j) for j in range(3)], axis=-1) for i in range(3)],
        axis=-2,
    )
    return np.linalg.det(mat)


def phi_flatness_worst_per_sample(group, seed, samples=100, h=1e-5):
    """The phi-flatness job's worst |d phi/ds'|, one sample at a time: draw
    Y and then s from the job's generator, and call the one-vector route."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        Y = rng.standard_normal(group.dim)
        s = float(rng.uniform(0.25, 3.0))
        worst = max(worst, abs(halfform.phi_flatness_residual(group, s, Y, h)))
    return worst


def _cmul(x, y, shift):
    """Product of two complex fixed-point matrices (re, im), shifted right."""
    (xr, xi), (yr, yi) = x, y
    return (xr @ yr - xi @ yi) >> shift, (xr @ yi + xi @ yr) >> shift


def n_matrix_per_sample(A, t, bits, nterms):
    """N_t = it*phi1(-itA) of one matrix A in complex fixed point.

    z = -itA is scaled by 2^-k to 1-norm at most 1e-3, where e^z and
    phi1(z) are truncated series of nterms terms, and k doublings undo the
    scaling.  Returns the pair (re, im) of integer matrices scaled by
    2^bits.
    """
    norm = t * float(np.abs(A).sum(axis=0).max())
    k = 0
    while norm > 1e-3:
        norm *= 0.5
        k += 1
    t_fixed = int(math.ldexp(t, bits))
    A_fixed = np.frompyfunc(lambda a: int(math.ldexp(a, bits)), 1, 1)(A)
    B = (A_fixed * -t_fixed) >> (bits + k)
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


def gaussian_det_per_sample(re, im):
    """Exact determinant of one Gaussian-integer matrix re + i im, by Bareiss."""
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
        q2 = qr * qr + qi * qi
        re[k + 1:, k + 1:] = (nr * qr + ni * qi) // q2
        im[k + 1:, k + 1:] = (ni * qr - nr * qi) // q2
        qr, qi = pr, pi
    return sign * re[n - 1, n - 1], sign * im[n - 1, n - 1]


def wedge_density_det_per_sample(group, s, s_prime, Y):
    """det N_{s+s'} / (2i)^n for one vector Y, one matrix at a time.

    The same precision, 80 + (s+s') sum |alpha(Y)| / ln 2 bits, with the
    series at 1-norm 1e-3 and max(12, bits // 8) terms.
    """
    A = groups.ad_matrix(group, Y)
    n = group.dim
    t = s + s_prime
    exponent_budget = t * float(np.sum(np.abs(groups.root_values(group, Y))))
    bits = 80 + math.ceil(exponent_budget / math.log(2))
    dr, di = gaussian_det_per_sample(*n_matrix_per_sample(A, t, bits, max(12, bits // 8)))
    dr, di = ((dr, di), (di, -dr), (-dr, -di), (-di, dr))[n % 4]
    scale = 1 << ((bits + 1) * n)
    return complex(dr / scale, di / scale)
