"""Integration rules over the Lie algebra.

Every integral in the verification pipeline is an algebra integral
against a Gaussian weight.  Two deterministic backends cover the
regimes that occur:

* ``cartan-reduced``: Weyl reduction of Ad-invariant integrands to the
  Cartan subalgebra, with the Jacobian prod_{alpha>0} alpha(H)^2 and
  the constant c_K folded into composite Gauss-Legendre weights.
* ``gauss-hermite-full``: tensor Gauss-Hermite rule on all ``dim``
  coordinates with the Gaussian weight divided back out, rescaled to
  the width of the integrand at hand.

A third rule, ``monte-carlo``, holds no nodes: it carries a sample
count and a seed to the Monte Carlo character backend, which draws its
own Gaussian moment (``pairing.char_gaussian_log``).

Every rule is one ``Quadrature`` and every integrand is batched: it
takes a stack of N algebra vectors ``(N, dim)`` and returns an ``(N,)``
array of values, so a rule costs one array call per block of at most
``BATCH`` nodes instead of one Python call per node.

Deterministic rules carry a coarser companion rule; the reported error
estimate is the difference between the two resolutions.  Accumulation
is compensated (exact sums of the weighted values), so identical
(backend, resolution, seed) reproduce bit-identical reports.
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
    """One configured integration rule over the algebra.

    Deterministic backends store their nodes (algebra vectors) with
    positive weights (Jacobian and c_K included for the reduced rule),
    plus a coarser companion used for the error estimate.  The Monte
    Carlo backend stores only (samples, seed).
    """

    backend: str
    group: GroupSpec
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None
    coarse_nodes: np.ndarray | None = None
    coarse_weights: np.ndarray | None = None
    samples: int = 0
    seed: int = 0


# nodes per integrand call: bounds the memory a batched integrand holds
# at once (a few kB per node for SU(2) Wigner or SU(3) eigen-solves)
BATCH = 512

# node cap of a tensor Gauss-Hermite rule, points ** dim
MAX_TENSOR_NODES = 2_000_000

_WEYL_CACHE: dict = {}


def batches(n: int):
    """Slices covering range(n) in order, BATCH entries at most each."""
    return (slice(start, min(start + BATCH, n)) for start in range(0, n, BATCH))


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


def _with_companion(backend: str, group: GroupSpec, rule, fine: int, coarse: int) -> Quadrature:
    # rule(resolution) -> (nodes, weights); the coarse resolution gives the
    # companion whose difference from the fine rule is the error estimate
    return Quadrature(backend, group, *rule(fine), *rule(coarse))


def _cartan_rule(group: GroupSpec, c_k: float, half_width: float, panels: int, points: int):
    x, w = _composite_legendre(half_width, panels, points)
    H = _tensor_nodes(x, group.rank)
    W = _tensor_weights(w, group.rank)
    jac = np.prod((H @ group.positive_roots.T) ** 2, axis=1)
    nodes = np.zeros((H.shape[0], group.dim))
    nodes[:, list(group.cartan_indices)] = H
    return nodes, c_k * W * jac


def cartan_quadrature(
    group: GroupSpec, half_width: float, points_per_panel: int = 12, panels: int = 8
) -> Quadrature:
    """Weyl-reduced rule on the Cartan box [-half_width, half_width]^rank.

    Only valid for Ad-invariant integrands (the caller asserts this).
    Keep ``points_per_panel`` even so no node lands on a root
    hyperplane and every weight stays strictly positive.
    """
    if group.kind == "torus":
        raise ValueError("use the Gauss-Hermite backend on tori")
    c_k = weyl_constant(group)
    return _with_companion(
        "cartan-reduced", group,
        functools.partial(_cartan_rule, group, c_k, half_width, panels),
        points_per_panel, max(4, (3 * points_per_panel) // 4),
    )


def hermite_quadrature(
    group: GroupSpec, points: int, scale: float = 1.0, center=None
) -> Quadrature:
    """Tensor Gauss-Hermite rule on all ``dim`` coordinates.

    Integrates F(Y) dY exactly for F = polynomial((Y-center)/scale)
    times e^{-|(Y-center)/scale|^2} up to per-coordinate degree
    2*points - 1; accurate whenever F decays at least like that
    Gaussian.  Shifting the center is how linearly tilted Gaussians are
    handled without inflating the point count.
    """
    if points**group.dim > MAX_TENSOR_NODES:
        raise ValueError("tensor rule too large; use cartan-reduced")
    if points > 350:
        # a size bound, not a stability one: a rule this long means an
        # integrand far wider than its scale, which recentering or
        # rescaling serves more cheaply
        raise ValueError("rule too long; recenter or rescale instead")
    return _with_companion(
        "gauss-hermite-full", group,
        lambda n: _hermite_rule(group.dim, n, scale, center),
        points, max(4, (3 * points) // 4),
    )


def _hermite_rule(dim: int, points: int, scale: float, center=None):
    # detached weights w e^{x^2}: up to 150 points exp(log w + x^2), beyond
    # that the Gaussian is divided out analytically
    x, detached = _gauss_hermite(points)
    nodes = scale * _tensor_nodes(x, dim)
    if center is not None:
        nodes = nodes + np.asarray(center, dtype=float)[None, :]
    weights = scale**dim * _tensor_weights(detached, dim)
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _gauss_hermite(n: int):
    """Gauss-Hermite nodes x and detached weights w e^{x^2} for n points.

    Weight e^{-x^2}.  Nodes start as eigenvalues of the Jacobi matrix
    (off-diagonal sqrt(k/2)).  Up to 150 points one Newton step on H_n
    follows, then log-normalized weights, symmetrized and scaled to total
    mass sqrt(pi): step for step the reference Golub-Welsch rule that
    tests/test_quadrature.py compares against, which it matches bit for
    bit.  Longer rules, where H_n overflows, take Newton steps on the
    orthonormal Hermite functions phi_n = H_n e^{-x^2/2} / sqrt(2^n n!
    sqrt(pi)) instead; there the detached weight is 1 / (n phi_{n-1}(x)^2),
    with the Gaussian divided out analytically.  Built once per n; the
    arrays are read-only.
    """
    k = np.arange(1, n, dtype=float)
    off = np.sqrt(k / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    if n <= 150:  # the reference rule's own threshold; H_n overflows soon after
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
        for _ in range(2):
            phi, phi_prev = _hermite_functions(n, x)
            x = x - phi / (math.sqrt(2.0 * n) * phi_prev - x * phi)
        x = (x - x[::-1]) / 2
        _, phi_prev = _hermite_functions(n, x)
        detached = 1.0 / (n * phi_prev**2)
        detached = (detached + detached[::-1]) / 2
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


def algebra_montecarlo(group: GroupSpec, samples: int, seed: int) -> Quadrature:
    """Sample count and seed for the Monte Carlo character backend."""
    return Quadrature("monte-carlo", group, samples=samples, seed=seed)


def _weighted_sum(weights: np.ndarray, values: np.ndarray):
    if np.iscomplexobj(values):
        return complex(
            math.fsum(weights * values.real), math.fsum(weights * values.imag)
        )
    return math.fsum(weights * values)


def _checked(F, nodes: np.ndarray) -> np.ndarray:
    values = np.asarray(F(nodes))
    if values.shape != (len(nodes),):
        raise ValueError(
            f"integrand returned shape {values.shape} for {len(nodes)} nodes; "
            "expected one value per node"
        )
    _require_finite(values)
    return values


def _values(F, nodes: np.ndarray) -> np.ndarray:
    # one integrand call per batch of nodes, in node order
    return np.concatenate([_checked(F, nodes[part]) for part in batches(len(nodes))])


def _require_nodes(quad: Quadrature) -> None:
    if quad.nodes is None:
        raise ValueError(f"the {quad.backend} rule holds no nodes to integrate on")


def integrate_algebra(F, quad: Quadrature):
    """Integral of F over the algebra, as (value, error_estimate).

    F maps an ``(N, dim)`` array of algebra vectors to an ``(N,)`` array
    of real or complex values; it is called once per batch of at most
    BATCH nodes.  For the cartan-reduced backend F must be Ad-invariant.
    The error estimate is the difference against the companion
    resolution.
    """
    _require_nodes(quad)
    value = _weighted_sum(quad.weights, _values(F, quad.nodes))
    coarse = _weighted_sum(quad.coarse_weights, _values(F, quad.coarse_nodes))
    return value, abs(value - coarse)


def integrate_algebra_log(logF, quad: Quadrature):
    """log of the integral of e^{logF} >= 0, as (log_value, log_error).

    Overflow-safe route for positive integrands whose scale exceeds
    float range; logF follows the batched contract of integrate_algebra
    and must be real-valued.
    """
    _require_nodes(quad)
    with np.errstate(divide="ignore"):
        logw = np.log(quad.weights)
        logw_c = np.log(quad.coarse_weights)
    value = float(logsumexp(_values(logF, quad.nodes) + logw))
    coarse = float(logsumexp(_values(logF, quad.coarse_nodes) + logw_c))
    return value, abs(value - coarse)


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
