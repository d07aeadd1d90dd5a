"""Integration rules over the Lie algebra.

Every integral in the verification pipeline is an algebra integral
against a Gaussian weight.  Three deterministic backends cover the
regimes that occur:

* ``cartan-reduced``: Weyl reduction of Ad-invariant integrands to the
  Cartan subalgebra, with the Jacobian prod_{alpha>0} alpha(H)^2 and
  the constant c_K folded into composite Gauss-Legendre weights.
* ``gauss-hermite-full``: tensor Gauss-Hermite rule on all ``dim``
  coordinates with the Gaussian weight divided back out, rescaled to
  the width of the integrand at hand (tori, ``convergence``, tests).
* ``spherical-radial``: on su(2) = R^3, a product rule on the unit
  sphere times a radial Gauss-Hermite rule, for integrands that are a
  radial function times a polynomial of known degree in Y/|Y|.

Every rule is one ``Quadrature``: nodes with positive weights plus a
coarser companion rule, and the reported error estimate is the
difference between the two resolutions.  Every integrand is batched: it
takes a stack of N algebra vectors ``(N, dim)`` and returns an
``(N, *shape)`` array, one value of the shape its caller declares per
node (a scalar unless stated), so a rule costs one array call per block
of at most ``BATCH`` nodes instead of one Python call per node.  A
``Quadrature`` may stack L rules of equal length (one Hermite rule per
center, one Cartan box per half-width); ``integrate_algebra_log`` hands
its integrand slices of all L at once and sums each rule on its own row,
so a rule gives the same bits alone or in any stack.  Accumulation is
compensated (exact sums of the weighted values, entry by entry), so
identical (backend, resolution) reproduce bit-identical reports.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .groups import GroupSpec


@dataclasses.dataclass(frozen=True, eq=False)
class Quadrature:
    """One configured integration rule over the algebra, or a stack of
    ``rules`` rules of equal length, flat and rule-major.

    Nodes (algebra vectors) with positive weights (Jacobian and c_K
    included for the reduced rule), plus a coarser companion used for
    the error estimate.
    """

    backend: str
    nodes: np.ndarray
    weights: np.ndarray
    coarse_nodes: np.ndarray
    coarse_weights: np.ndarray
    rules: int = 1


# nodes per integrand call: bounds the memory a batched integrand holds
# at once (a few kB per node for SU(2) Wigner or SU(3) eigen-solves)
BATCH = 512

# node cap of a tensor rule: points ** dim for Gauss-Hermite, and
# (points_per_panel * panels) ** rank for the Cartan-reduced rule, times
# the number of rules in a stack
MAX_TENSOR_NODES = 2_000_000

# length cap of one 1-D Gauss-Hermite rule.  A size bound, not a stability
# one: a rule this long means an integrand far wider than its scale, which
# recentering or rescaling serves more cheaply
MAX_RULE_POINTS = 350

_WEYL_CACHE: dict = {}


def _batches(n: int, step: int = BATCH):
    """Slices covering range(n) in order, ``step`` entries at most each."""
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def weyl_constant(group: GroupSpec) -> float:
    """Constant c_K with int_k F dY = c_K int_t F(H) prod alpha(H)^2 dH.

    Holds for Ad-invariant F; calibrated on the exact Gaussian
    int_k e^{-|Y|^2} dY = pi^{dim/2}.  The Cartan-side integral has a
    polynomial integrand, so a small Gauss-Hermite rule is exact.
    Computed once per (group, scale).
    """
    if group.kind == "torus":
        raise ValueError("torus integrals need no Weyl reduction")
    key = (group.kind, group.scale)
    if key not in _WEYL_CACHE:
        x, w = np.polynomial.hermite.hermgauss(8)
        H = _tensor_nodes(x, group.rank)
        W = _tensor_weights(w, group.rank)
        jac = np.prod((H @ group.positive_roots.T) ** 2, axis=1)
        _WEYL_CACHE[key] = math.pi ** (group.dim / 2) / math.fsum(W * jac)
    return _WEYL_CACHE[key]


def _tensor_nodes(x: np.ndarray, rank: int) -> np.ndarray:
    grids = np.meshgrid(*([x] * rank), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _tensor_weights(w: np.ndarray, rank: int) -> np.ndarray:
    return functools.reduce(np.multiply.outer, [w] * rank).ravel()


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for n points.

    Built by ``leggauss`` (an eigen-solve and one Newton step) once per n
    per process; the arrays are read-only.
    """
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _composite_legendre(half_width: float, panels: int, points: int):
    x, w = _gauss_legendre(points)
    edges = np.linspace(-half_width, half_width, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    h = (edges[1] - edges[0]) / 2.0
    nodes = (mid[:, None] + h * x[None, :]).ravel()
    weights = np.broadcast_to(h * w, (panels, points)).ravel()
    return nodes, np.ascontiguousarray(weights)


def _with_companion(backend: str, rule, fine: int, rules: int = 1) -> Quadrature:
    # rule(resolution) -> (nodes, weights); the coarse resolution, three
    # quarters of the fine one and at least 4, gives the companion whose
    # difference from the fine rule is the error estimate
    return Quadrature(backend, *rule(fine), *rule(max(4, (3 * fine) // 4)), rules)


def _cartan_rule(group: GroupSpec, c_k: float, half_widths, panels: int, points: int):
    boxes = [_composite_legendre(half_width, panels, points) for half_width in half_widths]
    H = np.concatenate([_tensor_nodes(x, group.rank) for x, _ in boxes])
    W = np.concatenate([_tensor_weights(w, group.rank) for _, w in boxes])
    jac = np.prod((H @ group.positive_roots.T) ** 2, axis=1)
    nodes = np.zeros((H.shape[0], group.dim))
    nodes[:, list(group.cartan_indices)] = H
    return nodes, c_k * W * jac


def cartan_quadrature(
    group: GroupSpec, half_width, points_per_panel: int = 12, panels: int = 8
) -> Quadrature:
    """Weyl-reduced rule on the Cartan box [-half_width, half_width]^rank,
    or a stack of such rules, one per entry of a sequence ``half_width``
    (the node cap bounds the whole stack).

    Only valid for Ad-invariant integrands (the caller asserts this).
    Keep ``points_per_panel`` even so no node lands on a root
    hyperplane and every weight stays strictly positive.
    """
    if group.kind == "torus":
        raise ValueError("use the Gauss-Hermite backend on tori")
    half_widths = np.atleast_1d(half_width)
    if len(half_widths) * (points_per_panel * panels) ** group.rank > MAX_TENSOR_NODES:
        raise ValueError("Cartan rule too large; use fewer panels or points per panel")
    c_k = weyl_constant(group)
    return _with_companion(
        "cartan-reduced",
        functools.partial(_cartan_rule, group, c_k, half_widths, panels),
        points_per_panel,
        len(half_widths),
    )


def hermite_quadrature(
    group: GroupSpec, points: int, scale: float = 1.0, center=None
) -> Quadrature:
    """Tensor Gauss-Hermite rule on all ``dim`` coordinates.

    Integrates F(Y) dY exactly for F = polynomial((Y-center)/scale)
    times e^{-|(Y-center)/scale|^2} up to per-coordinate degree
    2*points - 1; accurate whenever F decays at least like that
    Gaussian.  Shifting the center is how linearly tilted Gaussians are
    handled without inflating the point count.  ``(L, dim)`` centers
    give a stack of L rules, the one rule shifted to each center; the
    node cap bounds the whole stack.
    """
    centers = None if center is None else np.atleast_2d(np.asarray(center, dtype=float))
    rules = 1 if centers is None else len(centers)
    if rules * points**group.dim > MAX_TENSOR_NODES:
        raise ValueError("tensor rule too large; use cartan-reduced")
    _require_rule_length(points)
    return _with_companion(
        "gauss-hermite-full",
        lambda n: _hermite_rule(group.dim, n, scale, centers),
        points,
        rules,
    )


def _hermite_rule(dim: int, points: int, scale: float, centers=None):
    # detached weights w e^{x^2}: up to 150 points exp(log w + x^2), beyond
    # that the Gaussian is divided out analytically
    x, detached = _gauss_hermite(points)
    nodes = scale * _tensor_nodes(x, dim)
    weights = scale**dim * _tensor_weights(detached, dim)
    if centers is None:
        return nodes, weights
    shifted = nodes[None, :, :] + centers[:, None, :]
    return shifted.reshape(-1, dim), np.tile(weights, len(centers))


def _require_rule_length(points: int) -> None:
    if points > MAX_RULE_POINTS:
        raise ValueError("rule too long; recenter or rescale instead")


def spherical_radial(group: GroupSpec, points: int, scale: float, degree: int) -> Quadrature:
    """Spherical-radial rule on su(2) = R^3 (Stroud 1971; Genz-Monahan 1998).

    Nodes scale * r_i u_k.  The r_i are the ``points`` positive nodes of
    the 2 * points Gauss-Hermite rule; with the even extension of the
    radial integrand their weights are scale^3 * (detached weight) * r_i^2.
    The directions u_k are a Gauss-Legendre rule in cos(theta) with
    degree // 2 + 1 points times a (degree + 1)-point trapezoid rule in
    phi, exact for every polynomial in u of degree <= ``degree``.  The
    companion is the shorter radial rule, max(4, 3 * points // 4) positive
    nodes, on the same directions, so the estimate measures the radial
    error alone.

    The integrands this serves have the form g(|Y|) times an entry
    (or a linear combination of entries) of the spin-j matrix of
    exp(2iY) = P^2, with P = exp(iY) Hermitian positive: the holomorphic
    inner product reads (M^dagger M)^T = D^j(P^2)^T, and the two
    delta-two lifts combine as D^j(P_-)^T conj(D^j(P_+)) = D^j(P_+ P_-)^T
    = D^j(P^2)^T.  On the sphere |Y| = r the entries of P^2 are affine in
    u = Y / r, so those of its spin-j matrix are polynomials of degree
    2j in u: ``degree`` = 2 j_max (the largest SU(2) label) makes the
    direction sum exact and leaves only the radial error.  Read entry by
    entry, the product of the two factors has degree 4 j_max; the group
    law folds it to 2 j_max, and one degree less leaves errors of order
    1e-2 to 1 in both integrands.
    """
    if group.kind != "su2":
        raise ValueError("the spherical-radial rule is built on su(2) only")
    _require_rule_length(2 * points)
    z, wz = _gauss_legendre(degree // 2 + 1)
    phi = 2.0 * math.pi * np.arange(degree + 1) / (degree + 1)
    sin_theta = np.sqrt(1.0 - z * z)
    directions = np.stack([
        np.outer(sin_theta, np.cos(phi)).ravel(),
        np.outer(sin_theta, np.sin(phi)).ravel(),
        np.repeat(z, degree + 1),
    ], axis=-1)
    direction_weights = np.repeat(wz * (2.0 * math.pi / (degree + 1)), degree + 1)

    def rule(n):
        x, detached = _gauss_hermite(2 * n)
        r, wr = x[n:], scale**3 * detached[n:] * x[n:] ** 2
        nodes = (scale * r[:, None, None] * directions[None, :, :]).reshape(-1, 3)
        return nodes, np.outer(wr, direction_weights).ravel()

    return _with_companion("spherical-radial", rule, points)


@functools.lru_cache(maxsize=None)
def _gauss_hermite(n: int):
    """Gauss-Hermite nodes x and detached weights w e^{x^2} for n points.

    Weight e^{-x^2}.  Up to 150 points the nodes start as eigenvalues of the
    n x n Jacobi matrix (off-diagonal sqrt(k/2)), one Newton step on H_n
    follows, then log-normalized weights, symmetrized and scaled to total
    mass sqrt(pi): step for step the reference Golub-Welsch rule that
    tests/test_quadrature.py compares against, bit for bit.  Longer rules,
    where H_n overflows, start from a matrix half that size: as H_{2m}(x) ~
    L_m^{(-1/2)}(x^2) and H_{2m+1}(x) ~ x L_m^{(1/2)}(x^2), the nonnegative
    nodes are 0 for odd n and sqrt(y), y the eigenvalues of the
    floor(n/2)-point Jacobi matrix of the Laguerre weight y^alpha e^{-y}
    (diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha))).  One Newton
    step on the orthonormal Hermite functions phi_n = H_n e^{-x^2/2} /
    sqrt(2^n n! sqrt(pi)) follows; the detached weight is
    1 / (n phi_{n-1}(x)^2), the Gaussian divided out analytically, and the
    negative half mirrors these.  Built once per n; the arrays are read-only.
    """
    if n <= 150:  # the reference rule's own threshold; H_n overflows soon after
        off = np.sqrt(np.arange(1, n, dtype=float) / 2.0)
        x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
        dy = 2.0 * n * _eval_hermite(n - 1, x)
        x = x - _eval_hermite(n, x) / dy
        # fm and dy span many decades: center their logs before the product
        fm = _eval_hermite(n - 1, x)
        log_fm = np.log(np.abs(fm))
        log_dy = np.log(np.abs(dy))
        fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
        dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
        w = 1.0 / (fm * dy)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
        w = w * (math.sqrt(math.pi) / w.sum())
        detached = np.exp(np.log(w) + x * x)
    else:
        k, alpha = np.arange(n // 2, dtype=float), n % 2 - 0.5
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        jacobi = np.diag(2 * k + alpha + 1) + np.diag(off, 1) + np.diag(off, -1)
        r = np.concatenate([np.zeros(n % 2), np.sqrt(np.linalg.eigvalsh(jacobi))])
        phi, phi_prev = _hermite_functions(n, r)
        r = r - phi / (math.sqrt(2.0 * n) * phi_prev - r * phi)
        w = 1.0 / (n * _hermite_functions(n, r)[1] ** 2)
        # the mirror image leaves out the node 0 of odd n
        x = np.concatenate([-r[::-1][: n // 2], r])
        detached = np.concatenate([w[::-1][: n // 2], w])
    x.setflags(write=False)
    detached.setflags(write=False)
    return x, detached


def _eval_hermite(n: int, x: np.ndarray) -> np.ndarray:
    # H_n(x) = He_n(sqrt(2) x) 2^{n/2}, He_n by the backward recurrence in
    # the reference rule's order of operations (so the rounding is the same)
    u = math.sqrt(2.0) * x
    if n == 0:
        return np.ones_like(x)
    y3, y2 = np.zeros_like(x), np.ones_like(x)
    for k in range(n, 1, -1):
        y3, y2 = y2, u * y2 - k * y3
    return (u * y2 - y3) * 2.0 ** (n / 2.0)


def _hermite_functions(n: int, x: np.ndarray):
    # orthonormal Hermite functions (phi_n(x), phi_{n-1}(x)), n >= 1
    prev = np.zeros_like(x)
    cur = math.pi**-0.25 * np.exp(-0.5 * x * x)
    for k in range(n):
        prev, cur = cur, (
            math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
        )
    return cur, prev


def _weighted_sum(weights: np.ndarray, values: np.ndarray):
    # compensated sum over nodes, entry by entry for array values
    if values.ndim > 1:
        flat = values.reshape(len(values), -1)
        sums = [_weighted_sum(weights, flat[:, k]) for k in range(flat.shape[1])]
        return np.array(sums).reshape(values.shape[1:])
    if np.iscomplexobj(values):
        return complex(
            math.fsum(weights * values.real), math.fsum(weights * values.imag)
        )
    return math.fsum(weights * values)


def _checked(F, nodes: np.ndarray, shape: tuple) -> np.ndarray:
    values = np.asarray(F(nodes))
    if values.shape != (*nodes.shape[:-1], *shape):
        raise ValueError(
            f"integrand returned shape {values.shape} for nodes of shape {nodes.shape}; "
            f"expected one value of shape {shape} per node"
        )
    _require_finite(values)
    return values


def _values(F, nodes: np.ndarray, shape: tuple = ()) -> np.ndarray:
    # one integrand call per batch along the node axis, in node order; an
    # (L, N, dim) stack of rules gives F BATCH // L nodes of each rule
    axis = nodes.ndim - 2
    step = max(1, BATCH // math.prod(nodes.shape[:axis]))
    return np.concatenate(
        [_checked(F, nodes[..., part, :], shape) for part in _batches(nodes.shape[axis], step)],
        axis=axis,
    )


def integrate_algebra(F, quad: Quadrature, shape: tuple = ()):
    """Integral of F over the algebra, as (value, error_estimate).

    F maps an ``(N, dim)`` array of algebra vectors to an ``(N, *shape)``
    array of real or complex values; it is called once per batch of at
    most BATCH nodes.  For the cartan-reduced backend F must be
    Ad-invariant.  The value has the declared ``shape`` (a scalar by
    default); the error estimate is its largest entrywise difference
    against the companion resolution.
    """
    if quad.rules != 1:
        raise ValueError("integrate_algebra takes one rule, not a stack")
    value = _weighted_sum(quad.weights, _values(F, quad.nodes, shape))
    coarse = _weighted_sum(quad.coarse_weights, _values(F, quad.coarse_nodes, shape))
    if not shape:
        return value, abs(value - coarse)
    return value, float(np.max(np.abs(value - coarse)))


def integrate_algebra_log(logF, quad: Quadrature) -> list:
    """log of the integral of e^{logF} >= 0 on each rule of the stack, as
    one (log_value, log_error) pair per rule.

    Overflow-safe route for positive integrands whose scale exceeds
    float range.  logF maps an ``(L, b, dim)`` slice, b nodes of each of
    the L rules, to ``(L, b)`` real values, at most BATCH nodes per call.
    """
    sums = []
    for nodes, weights in ((quad.nodes, quad.weights), (quad.coarse_nodes, quad.coarse_weights)):
        with np.errstate(divide="ignore"):
            logw = np.log(weights).reshape(quad.rules, -1)
        values = _values(logF, nodes.reshape(quad.rules, -1, nodes.shape[-1]))
        sums.append(logsumexp(values + logw, axis=-1))  # each rule along its row
    return [(float(v), abs(float(v) - float(c))) for v, c in zip(*sums)]


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all entries by default), for real a.

    Step for step the reference real-input algorithm that
    tests/test_quadrature.py compares against, which it matches bit for
    bit: the entries equal to the maximum are counted (m) and left out of
    the shifted sum, which gives log1p(sum / m) + log(m) + max.  Where
    that is not finite (an all -inf slice, a +inf or nan entry) the
    direct log(sum(exp(a))) stands instead.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    top = np.max(a, axis=axes, keepdims=True)
    at_top = a == top
    m = np.sum(at_top, axis=axes, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=axes, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand produced a non-finite sample")
