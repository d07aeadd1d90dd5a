"""Pairings between quantizations: quantum, prequantum, and vertical.

Every quantum pairing here reduces to one scalar integral per irrep.
The compact-direction integral is done analytically by Schur
orthogonality, and the remaining Ad-invariant algebra integral of a
matrix element is a multiple of the identity whose scalar is the
character integral divided by the dimension.  What is left to numerics
is the character-Gaussian integral

    G_R(t) = int_k chi_R(e^{itY}) e^{-t|Y|^2/(2 hbar0)} (t/2)^{n/2}
             eta((t/2) Y) dY

with contract value d_R (pi hbar0)^{n/2} e^{t hbar0 (c_R+|rho|^2)/2}.
Each route to G_R has one entry that returns log G_R(t):
``char_gaussian_log`` integrates a list of irreps at one t on the stack
of node rules it is handed, one rule per irrep (Weyl-reduced quadrature
on the weight tables, or full Gauss-Hermite on defining-matrix
eigenvalues for one irrep on SU(2)).  ``char_log_table`` is the one
per-run source of those logs: it takes the Weyl-reduced route, computes
each (t, irrep) once and hands the stored pair to every identity
assembled from it.  A miss at t computes the asked irreps and every
band irrep not yet stored at t in as few stacked calls as the node cap
allows (one, at the defaults), and each value has the same bits
whichever stack computed it.
Exponents grow linearly in t c_R, so assemblies stay in log space
wherever float range could overflow.  The BKS block factor
has one closed exponent, ``bks_exponent``, and one numeric log,
``bks_factor_log``.  The pairing map itself is ``bks_map_apply``; the
unitarity check applies it and measures norms with ``quantum_norm_sq``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import quadrature
from .config import FAMILIES
from .groups import (
    GroupSpec,
    Irrep,
    character_element,
    group_exp,
    highest_weight,
    make_irrep,
    random_element,
    torus_group,
    weights_with_multiplicities,
    wigner_matrix,
)
from .halfform import eta, log_sinhc, phi
from .heat import (
    BandLimitedFunction,
    _irrep_matrices,
    _su2_conjugation_intertwiner,
    a_s,
    l2_inner,
    matrix_element_function,
    measure_integral,
)


@dataclasses.dataclass(frozen=True, eq=False)
class QuantumSection:
    """Half-form corrected holomorphic section with L2(K) datum f.

    For s > 0 the section lives on the polarization of parameter s and
    its holomorphic data are the transformed blocks of f; at s = 0 it
    is f itself in the vertical polarization, paired with the rescaled
    inner product.
    """

    s: float
    f: BandLimitedFunction
    hbar0: float = 1.0

    def __post_init__(self) -> None:
        if self.s < 0.0:
            raise ValueError("s must be nonnegative")
        if self.hbar0 <= 0.0:
            raise ValueError("hbar0 must be positive")


@dataclasses.dataclass(frozen=True, eq=False)
class PrequantumSection:
    """Prequantum half-form section in the unit-length frame.

    The amplitude is a black-box sampler evaluated on algebra
    quadrature nodes: it maps an ``(N, dim)`` array of nodes to an
    ``(N,)`` array of values.  It multiplies a frame of pointwise norm
    one, so norms are plain integrals of |amplitude|^2 over the algebra
    direction.
    """

    group: GroupSpec
    s: float
    amplitude: object

    def __post_init__(self) -> None:
        if self.s <= 0.0:
            raise ValueError("prequantum sections need s > 0")


@dataclasses.dataclass(frozen=True, eq=False)
class PairingReport:
    """One verified identity instance with its numbers and pass flag."""

    identity: str
    group: str
    params: dict
    lhs: complex
    rhs: complex
    residual: float
    error_estimate: float
    tolerance: float
    passed: bool


def _report(identity, group, params, lhs, rhs, residual, error, tolerance,
            family=None):
    # ``residual`` is the number the bar bounds, as the caller scaled it;
    # the bar of ``family`` (default: the identity) may be inverted
    if FAMILIES[family or identity].inverted:
        passed = residual > tolerance
    else:
        passed = residual <= tolerance
    return PairingReport(identity, group.describe(), params, lhs, rhs, float(residual),
                         float(error), float(tolerance), bool(passed))


# -- character-Gaussian integral -----------------------------------------


def char_gaussian_quadrature(
    group: GroupSpec,
    hbar0: float,
    t: float,
    irreps,
    points_per_panel: int = 14,
    panels: int = 10,
    points: int = 64,
) -> quadrature.Quadrature:
    """Deterministic rules matched to the tilted Gaussians of G_R(t), a
    stack of one rule per irrep of ``irreps``.

    The integrand peaks at distance hbar0 |lambda+rho| from the origin
    with width sqrt(hbar0/t), so the Cartan box (or the Hermite reach,
    on tori) must cover the peak plus nine widths.
    """
    tilts = [highest_weight(group, irrep.label) + group.rho for irrep in irreps]
    sigma = math.sqrt(hbar0 / t)
    if group.kind == "torus":
        # the tilt is exactly linear, so recentering at the true peak
        # -hbar0 mu keeps the rule short at any band limit
        return quadrature.hermite_quadrature(
            group, points, scale=sigma, center=[-hbar0 * tilt for tilt in tilts]
        )
    half_widths = [hbar0 * float(np.linalg.norm(tilt)) + 9.0 * sigma for tilt in tilts]
    return quadrature.cartan_quadrature(
        group, half_widths, points_per_panel=points_per_panel, panels=panels
    )


def _char_log_integrand(group: GroupSpec, hbar0: float, t: float, irreps):
    # Batched Cartan-reduced log integrand of G_R(t), row i of an (L, b,
    # dim) slice on irrep i's rule.  For nodes Y in the Cartan subalgebra
    # (all of the algebra on tori) log chi_R(e^{i t Y}) comes from the
    # weight table and log eta(t Y / 2) from the root values H.alpha (no
    # eigen-solve), summed per root in log space so it stays finite where
    # eta itself overflows; tori have no roots, so log eta is 0 there.
    # Tables of one length share an array pass; none is padded, since a
    # padded row would sum in another order.
    by_length = {}
    for i, irrep in enumerate(irreps):
        mu, mult = weights_with_multiplicities(group, irrep)
        by_length.setdefault(len(mu), []).append((i, mu, np.log(mult.astype(float))[None]))
    tables = [(list(rows), np.stack(mus), np.stack(logmults))
              for rows, mus, logmults in (zip(*same) for same in by_length.values())]
    idx = list(group.cartan_indices)
    n = group.dim

    def logF(Y):
        H = Y[..., idx]
        logchi = np.empty(H.shape[:-1])
        for rows, mu, logmult in tables:
            logchi[rows] = quadrature.logsumexp(
                -t * (H[rows] @ np.swapaxes(mu, 1, 2)) + logmult, axis=-1
            )
        log_eta = np.sum(log_sinhc((0.5 * t * H) @ group.positive_roots.T), axis=-1)
        return (
            logchi
            - t * np.einsum("...j,...j->...", Y, Y) / (2.0 * hbar0)
            + (n / 2.0) * math.log(t / 2.0)
            + log_eta
        )

    return logF


def char_gaussian_log(
    group: GroupSpec, hbar0: float, t: float, irreps,
    quad: quadrature.Quadrature,
) -> list:
    """log G_R(t) with a relative error estimate for each irrep of
    ``irreps``, on the stack of rules handed in (one rule per irrep).

    Contract: log d_R (pi hbar0)^{n/2} + t hbar0 (c_R+|rho|^2)/2.  On
    SU(2) a full Gauss-Hermite rule takes the eigenvalue route for one
    irrep, which never reads the weight table.  The Cartan-reduced
    integrand is a positive weight sum, so its log-space route is immune
    to e^{t hbar0 c_R} growth.
    """
    if t <= 0.0:
        raise ValueError("the character-Gaussian integral needs t > 0")
    if quad.backend == "cartan-reduced" or group.kind == "torus":
        return quadrature.integrate_algebra_log(
            _char_log_integrand(group, hbar0, t, irreps), quad
        )
    (irrep,) = irreps
    value, err = _char_gaussian_hermite(group, hbar0, t, irrep, quad)
    return [(math.log(value), err / value)]


def _char_gaussian_hermite(group, hbar0, t, irrep, quad):
    # Independent route: the character is evaluated from defining-matrix
    # eigenvalues on the full algebra, not from the weight table.
    n = group.dim

    def F(Y):
        chi = character_element(group, irrep, group_exp(group, Y, 1j * t))
        return (
            chi.real
            * np.exp(-t * np.einsum("ij,ij->i", Y, Y) / (2.0 * hbar0))
            * (t / 2.0) ** (n / 2.0)
            * eta(group, (t / 2.0) * Y)
        )

    return quadrature.integrate_algebra(F, quad)


def char_log_table(group: GroupSpec, hbar0: float, points_per_panel: int = 14,
                   panels: int = 10, hermite_points: int = 64, band_irreps=()):
    """One run's character integrals, char_log(t, irreps) -> one
    (log G_R(t), relative error) pair per irrep: computed once per exact
    (t, label), the stored pair after that.  A miss at t computes the
    asked irreps and every one of ``band_irreps`` not yet stored at t in
    one pass: ``char_gaussian_log`` on stacks of recentered Hermite rules
    of ``hermite_points`` on tori and of Cartan boxes elsewhere, as few
    stacks as the node cap allows.  So no value depends on the order of
    asks.  Build one table per run.
    """
    if group.kind == "torus":
        rule_nodes = hermite_points**group.dim
    else:
        rule_nodes = (points_per_panel * panels) ** group.rank

    def compute(t, irreps):
        # the node cap bounds a whole stack, so a long miss takes several
        per_stack = max(1, quadrature.MAX_TENSOR_NODES // rule_nodes)
        pairs = []
        for start in range(0, len(irreps), per_stack):
            part = irreps[start:start + per_stack]
            quad = char_gaussian_quadrature(group, hbar0, t, part, points_per_panel,
                                            panels, hermite_points)
            pairs += char_gaussian_log(group, hbar0, t, part, quad)
        return pairs

    table = {}

    def char_log(t, irreps):
        if any((t, irrep.label) not in table for irrep in irreps):
            missing = {irrep.label: irrep for irrep in (*irreps, *band_irreps)
                       if (t, irrep.label) not in table}
            pairs = compute(t, list(missing.values()))
            table.update(((t, label), pair) for label, pair in zip(missing, pairs))
        return [table[t, irrep.label] for irrep in irreps]

    return char_log


# -- quantum pairings ----------------------------------------------------


def _common_labels(f: BandLimitedFunction, fp: BandLimitedFunction):
    return sorted(set(f.blocks) & set(fp.blocks))


def _assemble_pair(group, hbar0, t, f, fp, char_log):
    # Per-block sum of e^{-t hbar0 c/2} <f_R, f'_R> G_R(t) / d^2.
    # The transform exponent and G_R grow oppositely like e^{t hbar0 c/2},
    # so each block is combined in log magnitude before the phase sum;
    # multiplying the float extremes directly would underflow first.
    if char_log is None:
        char_log = char_log_table(group, hbar0)
    raws = {label: np.vdot(f.blocks[label], fp.blocks[label])
            for label in _common_labels(f, fp)}
    irreps = [make_irrep(group, label) for label, raw in raws.items() if raw != 0.0]
    if not irreps:
        return 0.0 + 0.0j, 0.0
    logs = char_log(t, irreps)
    phases = [raws[irrep.label] / abs(raws[irrep.label]) for irrep in irreps]
    logmags = [math.log(abs(raws[irrep.label])) - 0.5 * t * hbar0 * irrep.casimir + log_g
               - 2.0 * math.log(irrep.dim) for irrep, (log_g, _) in zip(irreps, logs)]
    top = max(logmags)
    value = sum(p * math.exp(m - top) for p, m in zip(phases, logmags))
    error = sum(e * math.exp(m - top) for (_, e), m in zip(logs, logmags))
    return complex(value * math.exp(top)), float(error * math.exp(top))


def _check_same_group(sec: QuantumSection, secp: QuantumSection) -> GroupSpec:
    g, gp = sec.f.group, secp.f.group
    if g.kind != gp.kind or g.scale != gp.scale or g.dim != gp.dim:
        raise ValueError("sections live over different groups")
    if sec.hbar0 != secp.hbar0:
        raise ValueError("sections carry different base constants")
    return g


def quantum_pair(sec: QuantumSection, secp: QuantumSection, char_log=None):
    """BKS pairing of two positive-parameter sections, as (value, error).

    Contract: a_{(s+s')/2} <f, f'>_{L2(K)}.  Assembled per irrep as
    tr(F^dagger F') G_R(s+s') / d_R^2 with F, F' the transformed data.
    """
    group = _check_same_group(sec, secp)
    if sec.s <= 0.0 or secp.s <= 0.0:
        raise ValueError("use vertical_pair when one parameter is 0")
    return _assemble_pair(group, sec.hbar0, sec.s + secp.s, sec.f, secp.f, char_log)


def quantum_norm_sq(sec: QuantumSection, char_log=None):
    """Numeric squared norm; contract a_s |f|^2 for s > 0 and the
    rescaled (pi hbar0)^{n/2} |f|^2 at s = 0."""
    if sec.s == 0.0:
        return vertical_inner(sec.hbar0, sec.f, sec.f).real, 0.0
    value, err = quantum_pair(sec, sec, char_log)
    return value.real, err


def vertical_pair(hbar0: float, s: float, f: BandLimitedFunction,
                  fp: BandLimitedFunction, char_log=None):
    """Pairing of the s-polarization against the vertical one.

    Contract: a_{s/2} <f, f'>_{L2(K)}, the s' -> 0 limit of the
    quantum pairing.  Single transformed factor, character integral at
    t = s.
    """
    if s <= 0.0:
        raise ValueError("vertical pairing needs s > 0")
    return _assemble_pair(f.group, hbar0, s, f, fp, char_log)


def vertical_inner(hbar0: float, f: BandLimitedFunction,
                   fp: BandLimitedFunction) -> complex:
    """Rescaled vertical inner product (pi hbar0)^{n/2} <f, f'>_{L2(K)}."""
    return (math.pi * hbar0) ** (f.group.dim / 2.0) * l2_inner(f, fp)


def bks_exponent(group: GroupSpec, hbar0: float, s: float, s_prime: float,
                 irrep: Irrep) -> float:
    """Closed log of the block factor, -((s-s')/2) hbar0 (c_R + |rho|^2)."""
    return -0.5 * (s - s_prime) * hbar0 * (irrep.casimir + group.rho_norm_sq)


def bks_factor_closed(group: GroupSpec, hbar0: float, s: float, s_prime: float,
                      irrep: Irrep) -> float:
    """Closed-form block factor e^{-((s-s')/2) hbar0 (c_R + |rho|^2)}."""
    return math.exp(bks_exponent(group, hbar0, s, s_prime, irrep))


def bks_factor_log(
    group: GroupSpec, hbar0: float, s: float, s_prime: float, irrep: Irrep,
    char_log=None,
):
    """log G_R(s+s') - log G_R(2s), the numeric log of the block factor.

    Ratio of the cross pairing against the norm on a fixed holomorphic
    matrix element; contract bks_exponent.  Returned with the summed
    relative error estimate of the two integrals.
    """
    if s <= 0.0 or s_prime <= 0.0:
        raise ValueError("the factor ratio needs s, s' > 0")
    if char_log is None:
        char_log = char_log_table(group, hbar0)
    [(log_cross, err_cross)] = char_log(s + s_prime, [irrep])
    [(log_norm, err_norm)] = char_log(2.0 * s, [irrep])
    return log_cross - log_norm, err_cross + err_norm


def bks_map_apply(s: float, s_prime: float, secp: QuantumSection) -> QuantumSection:
    """Pairing map from parameter s' to parameter s.

    On the holomorphic data each block is scaled by the pairing factor
    e^{-((s-s')/2) hbar0 (c_R+|rho|^2)}; conjugated through the
    transform this becomes the block-independent sqrt(a_{s'}/a_s) on
    the L2 datum, which is what is applied here.  The composition law
    across three parameters therefore holds exactly.  This is the map
    ``verify_unitarity`` applies before it compares norms.
    """
    if s < 0.0 or s_prime != secp.s:
        raise ValueError("target must be nonnegative and source tag must match")
    group = secp.f.group
    ratio = math.exp(-0.5 * (s - s_prime) * secp.hbar0 * group.rho_norm_sq)
    blocks = {label: ratio * block for label, block in secp.f.blocks.items()}
    return QuantumSection(
        s=s, f=BandLimitedFunction(group=group, blocks=blocks), hbar0=secp.hbar0
    )


def verify_unitarity(
    group: GroupSpec, hbar0: float, s: float, s_prime: float, irrep: Irrep,
    char_log=None, tolerance: float = 1e-6,
) -> PairingReport:
    """Unitarity of the pairing map, |B sigma'|^2 / |sigma'|^2 vs 1.

    sigma' is the (0, 0) matrix element of the irrep at parameter s', B
    is ``bks_map_apply`` from s' to s, and both norms are
    ``quantum_norm_sq``: numeric character integrals at t = 2s and 2s',
    or the rescaled vertical inner product at s' = 0.
    """
    if s <= 0.0 or s_prime < 0.0:
        raise ValueError("need s > 0 and s' >= 0")
    secp = QuantumSection(
        s=s_prime, f=matrix_element_function(group, irrep.label, 0, 0), hbar0=hbar0
    )
    norm, err = quantum_norm_sq(bks_map_apply(s, s_prime, secp), char_log)
    norm_p, err_p = quantum_norm_sq(secp, char_log)
    ratio = norm / norm_p
    return _report(
        "unitarity", group,
        {"hbar0": hbar0, "s": s, "s_prime": s_prime, "irrep": str(irrep.label)},
        ratio, 1.0, abs(ratio - 1.0), err / norm + err_p / norm_p, tolerance,
    )


def verify_factorization(
    group: GroupSpec, hbar0: float, s: float, s_prime: float, irrep: Irrep,
    tolerance: float = 1e-14,
) -> PairingReport:
    """Pairing factor vs the transform-composition route.

    Compares e^{-((s-s')/2) hbar0 (c_R+|rho|^2)} with the product of
    the transform ratio e^{-((s-s')/2) hbar0 c_R} and the density
    ratio sqrt(a_{s'}/a_s); the factorization is algebraic, so the two
    must agree at machine precision.
    """
    if s <= 0.0 or s_prime <= 0.0:
        raise ValueError("factorization route needs s, s' > 0")
    direct = bks_factor_closed(group, hbar0, s, s_prime, irrep)
    composed = math.exp(-0.5 * (s - s_prime) * hbar0 * irrep.casimir) * math.sqrt(
        a_s(group, hbar0, s_prime) / a_s(group, hbar0, s)
    )
    residual = abs(direct - composed) / direct
    return _report(
        "factorization", group,
        {"hbar0": hbar0, "s": s, "s_prime": s_prime, "irrep": str(irrep.label)},
        direct, composed, residual, 0.0, tolerance,
    )


def continuity_check(
    group: GroupSpec, hbar0: float, f: BandLimitedFunction, s_list,
    char_log=None, tolerance: float = 1e-6,
) -> PairingReport:
    """Norm continuity toward the vertical fiber.

    Reports r(s) = |sigma_s|^2 / ((pi hbar0)^{n/2} |f|^2) for each s in
    s_list against the contract r(s) = e^{|rho|^2 hbar0 s}, which
    approaches 1 linearly in s with slope |rho|^2 hbar0; the residual is
    the worst |r(s) - contract|.
    """
    base = vertical_inner(hbar0, f, f).real
    ratios = []
    errors = []
    for s in s_list:
        norm, err = quantum_norm_sq(QuantumSection(s=float(s), f=f, hbar0=hbar0),
                                    char_log)
        ratios.append(float(norm / base))
        errors.append(err / base)
    contract = [math.exp(group.rho_norm_sq * hbar0 * float(s)) for s in s_list]
    return _report(
        "continuity", group,
        {"hbar0": hbar0, "s_list": [float(s) for s in s_list], "ratios": ratios},
        ratios[-1], contract[-1], max(abs(r - c) for r, c in zip(ratios, contract)),
        sum(errors), tolerance,
    )


# -- delta identities ----------------------------------------------------


# length of delta-one's recentered Hermite rule on tori, per coordinate
DELTA_ONE_POINTS = 48


def _delta_one_scalar(group, hbar0, s, irrep):
    # e^{-hbar c_R} (a_s s^{n/2})^{-1} (1/d) *
    #   int chi_R(e^{2iY}) eta(Y) e^{-|Y|^2/hbar} dY,   contract 1.
    # The integral is G_R(2) at base constant hbar = s hbar0.
    hbar = s * hbar0
    quad = char_gaussian_quadrature(
        group, hbar, 2.0, [irrep], points_per_panel=16, panels=10, points=DELTA_ONE_POINTS
    )
    [(logv, logerr)] = char_gaussian_log(group, hbar, 2.0, [irrep], quad)
    lognorm = (
        math.log(a_s(group, hbar0, s))
        + (group.dim / 2.0) * math.log(s)
        + math.log(irrep.dim)
    )
    value = math.exp(logv - lognorm - hbar * irrep.casimir)
    return value, value * logerr


def verify_delta_identity(
    group: GroupSpec, hbar0: float, s: float, irrep: Irrep,
    tolerance: float = 1e-3,
) -> PairingReport:
    """Reproducing identity of the averaged measure on matrix elements.

    The compact integral of the heat kernel against a matrix element
    collapses by orthogonality to e^{-hbar c_R} times the element on
    the positive part; the remaining algebra integral against the
    averaged measure must return the identity matrix, which reduces to
    one scalar being 1.
    """
    scalar, err = _delta_one_scalar(group, hbar0, s, irrep)
    residual = abs(scalar - 1.0)
    return _report(
        "delta-one", group,
        {"hbar0": hbar0, "s": s, "irrep": str(irrep.label)},
        scalar, 1.0, residual, err, tolerance, family="delta",
    )


def _delta_two_su2(group, hbar0, s, s_prime, t, irrep, x2, points):
    # After the two exact compact-direction integrals (dual-pairing
    # orthogonality in the smeared variable, conjugate orthogonality in
    # the compact part of g) the double integral becomes
    #   e^{-hbar'' c} int C^T [(W_- Wx2^{-1})^T conj(W_+)] C  d nu_{s''}
    # with W_pm the irrep lifts of exp(i(1 pm t)Y) and nu the averaged
    # measure.  The two lifts are built separately so the deformation
    # parameter stays live in the numerics instead of cancelling
    # analytically.  The integral runs on the spherical-radial rule with
    # ``points`` radial nodes and sphere degree 2j (quadrature.spherical_radial
    # says why that is exact), one (d, d) value per node.  Returns the
    # matrix with its error estimate, the largest entrywise gap to the
    # companion rule.
    s_pp = 0.5 * (s + s_prime)
    j = irrep.label[0] / 2.0
    d = irrep.dim
    C = _su2_conjugation_intertwiner(d)
    Wx2_inv = wigner_matrix(j, np.linalg.inv(x2))

    def integrand(Y):
        Wp = wigner_matrix(j, group_exp(group, Y, 1j * (1.0 + t)))
        Wm = wigner_matrix(j, group_exp(group, Y, 1j * (1.0 - t)))
        return C.T @ (np.swapaxes(Wm @ Wx2_inv, -1, -2) @ np.conj(Wp)) @ C

    total, err = measure_integral(group, hbar0, s_pp, integrand, points, irrep.label[0],
                                  shape=(d, d))
    factor = math.exp(-hbar0 * s_pp * irrep.casimir)
    return factor * total, factor * err


def _torus_theta_kmax(lam, hbar, beta_max):
    # Smallest band with hbar k^2/(2 lam) - k beta_max >= 46, keeping
    # dropped terms below 1e-20 even after the angle sums.
    disc = beta_max + math.sqrt(beta_max * beta_max + 4.0 * 46.0 * hbar / (2.0 * lam))
    return int(disc * lam / hbar) + 4


def _delta_two_torus(group, hbar0, s, s_prime, t, irrep, x2, points):
    # Fully direct route: truncated theta kernels, trapezoid sums in
    # both compact angles, a Hermite rule in the fiber coordinate y.
    # Only the first circle carries the label; with rho = 0 the other
    # circles integrate to exactly 1, so the normalization is the
    # one-circle sqrt(pi hbar0 s'') at every rank.  Returns a 1 x 1
    # matrix with its error estimate, the gap to the companion rule.
    #
    # The truncated kernel is separable in the angles,
    #   Theta(theta_g - theta_1 + i c beta)
    #     = sum_k a_k(beta) e^{i k theta_g} e^{-i k theta_1},
    #   a_k(beta) = e^{-hbar k^2/(2 lam) - k c beta},   beta = y / sqrt(lam),
    # with c = 1 + t (hbar) in the first kernel and c = 1 - t (hbar')
    # in the second.  The kernel is thus the unit-modulus angle table
    # E = e^{i theta k}, built once, times a real weight per (node, k).
    # The measure factor e^{-y^2/hbar''} joins the first weight's
    # exponent: at large |y| the Gaussian underflows and the growth
    # factor overflows while their product does not, which is why this
    # integral does not go through heat.measure_integral's separate
    # weight.  The trapezoid sum over theta_1, the kernel on the theta_g
    # grid and the fiber sum are then matrix products with E.  They stay
    # direct sums over the grid, not the orthogonality their exact
    # values follow from, so the route keeps testing that cancellation
    # numerically.
    #
    # Cancellation bound: individual kernel terms grow like
    # e^{g(t) y^2/hbar''} against the e^{-y^2/hbar''} weight, with
    #   g(t) = hbar'' [(1+t)^2/(2 hbar) + (1-t)^2/(2 hbar')],
    # minimized to exactly 1 at t = (s - s')/(s + s').  The angle sums
    # cancel the growth analytically but leave rounding garbage of
    # relative size eps * e^{(g-1) y_max^2/hbar''}, so both deformation
    # values must stay near the minimizer or accuracy collapses with no
    # warning from the quadrature itself.
    lam = group.scale
    k = int(irrep.label[0])
    hbar = s * hbar0
    hbar_p = s_prime * hbar0
    hbar_pp = 0.5 * (hbar + hbar_p)
    s_pp = 0.5 * (s + s_prime)
    # The surviving term a_{-k} b_{-k} puts the Gaussian at
    # y = k hbar'' / sqrt(lam), out of the nodes' reach at large hbar0
    # or k, so the rule is centered there.
    quad = quadrature.hermite_quadrature(
        torus_group(1), points, scale=math.sqrt(hbar_pp), center=[k * hbar_pp / math.sqrt(lam)]
    )
    beta_max = float(np.max(np.abs(quad.nodes))) / math.sqrt(lam) * (1.0 + abs(t))
    kmax = max(
        _torus_theta_kmax(lam, hbar, beta_max),
        _torus_theta_kmax(lam, hbar_p, beta_max),
        abs(k) + 2,
    )
    # 2 kmax + 1 kept frequencies need 2 kmax + 2 angle points to stay
    # unaliased; 64 already covers the band at hbar0 >= 0.25
    m_grid = max(64, 2 * kmax + 2)
    theta = 2.0 * math.pi * np.arange(m_grid) / m_grid
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    E = np.exp(1j * np.outer(theta, ks))
    c = E.T @ np.exp(1j * k * theta) / m_grid
    phase_b = np.exp(-1j * ks * float(x2[0]))

    def integrand(Y):
        y = Y[:, 0]
        beta_k = np.outer(y / math.sqrt(lam), ks)
        a = np.exp(-hbar * ks**2 / (2.0 * lam) - (1.0 + t) * beta_k
                   - (y * y / hbar_pp)[:, None])
        b = np.exp(-hbar_p * ks**2 / (2.0 * lam) - (1.0 - t) * beta_k)
        inner = (a * c) @ E.conj().T
        ker_b = (b * phase_b) @ E.T
        return np.mean(inner * ker_b, axis=1)[:, None, None]

    total, err = quadrature.integrate_algebra(integrand, quad, shape=(1, 1))
    norm = math.sqrt(math.pi * hbar0 * s_pp)
    return total / norm, err / norm


def verify_delta_two(
    group: GroupSpec, hbar0: float, s: float, s_prime: float, t: float, irrep: Irrep,
    tolerance: float = 1e-3, seed: int = 0, t_alt: float = 0.55,
    points: int = 32,
) -> PairingReport:
    """Two-kernel reproducing identity with a free deformation parameter.

    Evaluates the double integral on the irrep's matrices at a sampled
    base point and compares against those matrices there; a second
    parameter value must give the same numbers, since the dependence
    cancels identically under the exact compact integrals.
    """
    if group.kind == "su3":
        raise ValueError("delta-two is verified on tori and SU(2)")
    kernel = _delta_two_torus if group.kind == "torus" else _delta_two_su2
    x2 = random_element(group, np.random.default_rng(seed))
    E, err = kernel(group, hbar0, s, s_prime, t, irrep, x2, points)
    E_alt, err_alt = kernel(group, hbar0, s, s_prime, t_alt, irrep, x2, points)
    target = _irrep_matrices(group, irrep.label, x2)
    t_dep = float(np.max(np.abs(E - E_alt)))
    residual = max(float(np.max(np.abs(E - target))), t_dep)
    return _report(
        "delta-two", group,
        {
            "hbar0": hbar0, "s": s, "s_prime": s_prime, "t": t, "t_alt": t_alt,
            "irrep": str(irrep.label), "t_dependence": t_dep,
        },
        complex(E[0, 0]), complex(target[0, 0]), residual, max(err, err_alt), tolerance,
        family="delta",
    )


# -- prequantum layer ----------------------------------------------------


def preq_map_apply(s: float, s_prime: float, secp: PrequantumSection) -> PrequantumSection:
    """Prequantum pairing map: multiply the unit-frame amplitude by sqrt(phi).

    phi compares the half-form wedge between the two polarizations; it
    is identically 1 only at s = s', which is why this map fails to
    preserve norms away from the diagonal while the quantum one does
    not.
    """
    if s <= 0.0 or s_prime != secp.s:
        raise ValueError("target must be positive and s' must be the source section's s")
    group = secp.group
    amp = secp.amplitude

    def new_amp(Y):
        return np.sqrt(phi(group, s, s_prime, np.asarray(Y, dtype=float))) * amp(Y)

    return PrequantumSection(group=group, s=s, amplitude=new_amp)


def preq_parallel_transport(s: float, s_prime: float,
                            secp: PrequantumSection) -> PrequantumSection:
    """Transport between polarizations: identity on unit-frame amplitudes."""
    if s <= 0.0 or s_prime != secp.s:
        raise ValueError("target must be positive and s' must be the source section's s")
    return PrequantumSection(group=secp.group, s=s, amplitude=secp.amplitude)


def preq_norm_sq(sec: PrequantumSection, quad: quadrature.Quadrature):
    """Squared prequantum norm: the algebra integral of |amplitude|^2."""

    def F(Y):
        return np.abs(sec.amplitude(Y)) ** 2

    return quadrature.integrate_algebra(F, quad)
