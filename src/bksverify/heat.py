"""Band-limited function spaces, the heat kernel, and the coherent state transform.

Functions on the group live in the dense span of matrix elements,
f(x) = sum_R sum_ij f^R_ij R_ij(x), stored as one complex d_R x d_R
block per irrep.  Holomorphic extensions to the complexified group use
the same tables: analytic continuation is coefficientwise, so the
transform, its inverse, and both inner products act block by block.
Series truncations report a rigorous tail bound instead of failing
silently.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from . import quadrature
from .groups import (
    GroupSpec,
    Irrep,
    character_element,
    casimir,
    dim_irrep,
    enumerate_irreps,
    group_exp,
    make_irrep,
    wigner_matrix,
)
from .halfform import eta


class TruncationError(ValueError):
    """A truncated series cannot meet the requested tolerance."""


class SeriesValue(NamedTuple):
    value: complex
    tail_bound: float


@dataclasses.dataclass(frozen=True, eq=False)
class BandLimitedFunction:
    """Finite coefficient table {irrep label: d_R x d_R complex block}.

    Represents f(x) = sum_R sum_ij f^R_ij R_ij(x); the same table read
    through analytically continued matrix elements represents the
    holomorphic extension to the complexified group.
    """

    group: GroupSpec
    blocks: dict

    @property
    def band_limit(self) -> float:
        """Largest Casimir eigenvalue present in the table."""
        if not self.blocks:
            return 0.0
        return max(casimir(self.group, label) for label in self.blocks)

    def labels(self) -> list:
        return sorted(self.blocks)


def make_function(group: GroupSpec, blocks: dict) -> BandLimitedFunction:
    table = {}
    for label, block in blocks.items():
        label = tuple(label)
        d = dim_irrep(group, label)
        arr = np.asarray(block, dtype=complex)
        if arr.shape != (d, d):
            raise ValueError(f"block for {label} must have shape {(d, d)}")
        table[label] = arr
    return BandLimitedFunction(group=group, blocks=table)


def matrix_element_function(group: GroupSpec, label, i: int, j: int) -> BandLimitedFunction:
    """The single matrix element R_ij as a band-limited function."""
    d = dim_irrep(group, tuple(label))
    block = np.zeros((d, d), dtype=complex)
    block[i, j] = 1.0
    return make_function(group, {tuple(label): block})


def random_band_limited(
    group: GroupSpec, casimir_cutoff: float, rng: np.random.Generator, scale: float = 1.0
) -> BandLimitedFunction:
    """Random complex-Gaussian coefficient table up to the Casimir cutoff."""
    blocks = {}
    for irrep in enumerate_irreps(group, casimir_cutoff):
        d = irrep.dim
        blocks[irrep.label] = scale * (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
    return make_function(group, blocks)


def l2_inner(f: BandLimitedFunction, fp: BandLimitedFunction) -> complex:
    """<f, f'> in L2 of normalized Haar, by Schur orthogonality."""
    total = 0.0 + 0.0j
    for label in sorted(set(f.blocks) & set(fp.blocks)):
        d = dim_irrep(f.group, label)
        total += np.vdot(f.blocks[label], fp.blocks[label]) / d
    return complex(total)


def _irrep_matrices(group: GroupSpec, label, g) -> np.ndarray:
    # the irrep's matrices at one element (d x d) or a stack (N x d x d):
    # the character as a 1 x 1 block on tori, the Wigner matrix on SU(2);
    # SU(3) tables enter the verified identities only through blockwise
    # sums, so no matrix elements are realized there
    if group.kind == "torus":
        chi = character_element(group, make_irrep(group, label), g)
        return np.asarray(chi)[..., None, None]
    if group.kind == "su2":
        return wigner_matrix(label[0] / 2.0, g)
    raise ValueError("matrix elements are realized on tori and SU(2) only")


def evaluate_function(f: BandLimitedFunction, g):
    """Value at a (possibly complexified) group element, or at a stack.

    One element (an angle vector on tori, a 2x2 matrix on SU(2)) gives a
    complex number; a stack of N (``(N, rank)`` angles or ``(N, 2, 2)``
    matrices) gives an ``(N,)`` array.  Tori and SU(2) only.
    """
    total = sum(
        np.einsum("ij,...ij->...", f.blocks[label], _irrep_matrices(f.group, label, g))
        for label in f.labels()
    )
    return complex(total) if np.ndim(total) == 0 else total


def _su2_conjugation_intertwiner(d: int) -> np.ndarray:
    C = np.zeros((d, d))
    for a in range(d):
        C[a, d - 1 - a] = (-1.0) ** a
    return C


def conjugate_function(f: BandLimitedFunction) -> BandLimitedFunction:
    """Coefficient table of conj(f), via the dual-representation symmetry.

    A table equal to its conjugate table represents a real-valued
    function on the compact group.
    """
    group = f.group
    blocks = {}
    for label in f.labels():
        F = f.blocks[label]
        if group.kind == "torus":
            dual = tuple(-k for k in label)
            blocks[dual] = blocks.get(dual, 0) + np.conj(F)
        elif group.kind == "su2":
            C = _su2_conjugation_intertwiner(F.shape[0])
            blocks[label] = C.T @ np.conj(F) @ np.linalg.inv(C).T
        else:
            raise ValueError("conjugation tables are available on tori and SU(2) only")
    return make_function(group, blocks)


def coefficients_jsonable(f: BandLimitedFunction) -> dict:
    """Coefficient table as nested lists of [re, im], for structured output."""
    out = {}
    for label in f.labels():
        block = f.blocks[label]
        out[repr(label)] = [
            [[float(z.real), float(z.imag)] for z in row] for row in block
        ]
    return out


def a_s(group: GroupSpec, hbar0: float, s: float) -> float:
    """Half-form normalization (pi hbar0)^{n/2} e^{|rho|^2 hbar0 s}.

    Satisfies a_{(s+s')/2} = sqrt(a_s a_{s'}) exactly.
    """
    if hbar0 <= 0.0:
        raise ValueError("hbar0 must be positive")
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return (math.pi * hbar0) ** (group.dim / 2.0) * math.exp(group.rho_norm_sq * hbar0 * s)


def _growth_length(group: GroupSpec, g) -> float:
    # |chi_R(g)| <= d_R e^{|lambda_R| L(g)} with L the norm of the
    # noncompact polar log, recovered from defining singular values.
    if group.kind == "torus":
        logs = -np.imag(np.asarray(g, dtype=complex))
    else:
        logs = np.log(np.linalg.svd(np.asarray(g, dtype=complex), compute_uv=False))
    return math.sqrt(group.scale * float(np.sum(logs**2)))


def _heat_tail_log_bound(group: GroupSpec, hbar: float, length: float, cutoff: float) -> float:
    root = math.sqrt(max(cutoff, 1e-300))
    rate = hbar / 2.0 - (length / (2.0 * root) if root > 0 else 0.0)
    if rate <= 0.0:
        raise TruncationError(
            f"casimir cutoff {cutoff:.3g} lies below the growth scale "
            f"(L/hbar)^2 = {(length / hbar) ** 2:.3g}; the dropped tail is not summable"
        )
    delta = max(1.0, 4.0 / rate)
    windows = 8
    horizon = cutoff + windows * delta
    dropped = [r for r in enumerate_irreps(group, horizon) if r.casimir > cutoff]
    for _ in range(30):
        if dropped:
            break
        horizon *= 2.0
        dropped = [r for r in enumerate_irreps(group, horizon) if r.casimir > cutoff]
    logt = {}
    for r in dropped:
        k = int((r.casimir - cutoff) / delta)
        t = 2.0 * math.log(r.dim) - hbar * r.casimir / 2.0 + math.sqrt(r.casimir) * length
        logt.setdefault(k, []).append(t)
    shells = [float(quadrature.logsumexp(np.asarray(v))) for _, v in sorted(logt.items())]
    for prev, cur in zip(shells[-3:-1], shells[-2:]):
        if cur - prev > math.log(0.5):
            raise TruncationError(
                "dropped shells beyond the cutoff do not decay geometrically; "
                "raise the casimir cutoff"
            )
    return float(quadrature.logsumexp(np.asarray(shells + [shells[-1] + math.log(2.0)])))


def heat_kernel(
    group: GroupSpec, hbar: float, g, casimir_cutoff: float, tolerance: float = 1e-8
) -> SeriesValue:
    """Heat kernel sum_R d_R e^{-hbar c_R/2} chi_R at a complexified element.

    Returns the truncated value together with a tail bound certifying
    that everything dropped beyond the cutoff stays below it; raises
    TruncationError when the bound cannot meet the tolerance.
    """
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    length = _growth_length(group, g)
    log_tail = _heat_tail_log_bound(group, hbar, length, casimir_cutoff)
    tail = math.exp(log_tail) if log_tail < 700.0 else math.inf
    if not tail <= tolerance:
        raise TruncationError(
            f"dropped-tail bound {tail:.3e} exceeds tolerance {tolerance:.1e}; "
            "raise the casimir cutoff"
        )
    total = 0.0 + 0.0j
    for irrep in enumerate_irreps(group, casimir_cutoff):
        total += (
            irrep.dim
            * math.exp(-hbar * irrep.casimir / 2.0)
            * character_element(group, irrep, g)
        )
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise ValueError("heat kernel series overflowed; reduce the complexification")
    return SeriesValue(complex(total), tail)


def nu_density(group: GroupSpec, hbar0: float, s: float, x, Y):
    """Density of the K-averaged heat-kernel measure in polar coordinates.

    Value (a_s s^{n/2} eta(Y))^{-1} e^{-|Y|^2/hbar}; constant in the
    compact coordinate x, which is accepted only to mirror the polar
    decomposition of the argument.  Y of shape ``(dim,)`` gives a float,
    ``(N, dim)`` an ``(N,)`` array.
    """
    if s <= 0.0:
        raise ValueError("the averaged measure needs s > 0")
    Y = np.asarray(Y, dtype=float)
    hbar = hbar0 * s
    norm = a_s(group, hbar0, s) * s ** (group.dim / 2.0) * eta(group, Y)
    value = np.exp(-np.sum(Y * Y, axis=-1) / hbar) / norm
    return float(value) if value.ndim == 0 else value


def cst_forward(hbar: float, f: BandLimitedFunction) -> BandLimitedFunction:
    """Coherent state transform: blockwise e^{-hbar c_R/2}, then continue."""
    if hbar < 0.0:
        raise ValueError("hbar must be nonnegative")
    group = f.group
    blocks = {
        label: math.exp(-hbar * casimir(group, label) / 2.0) * f.blocks[label]
        for label in f.labels()
    }
    return BandLimitedFunction(group=group, blocks=blocks)


def cst_inverse(
    hbar: float, F: BandLimitedFunction, max_condition: float = 1e6
) -> BandLimitedFunction:
    """Inverse transform on the band-limited subspace.

    The amplification e^{+hbar c_R/2} of every block must stay below
    max_condition: outside the band limit the inverse heat flow is
    ill-posed, so an excessive factor is refused, not computed.
    """
    if hbar < 0.0:
        raise ValueError("hbar must be nonnegative")
    group = F.group
    blocks = {}
    for label in F.labels():
        factor = math.exp(hbar * casimir(group, label) / 2.0)
        if factor > max_condition:
            raise ValueError(
                f"inverse-transform amplification {factor:.3e} for block {label} "
                f"exceeds the condition bound {max_condition:.1e}"
            )
        blocks[label] = factor * F.blocks[label]
    return BandLimitedFunction(group=group, blocks=blocks)


def hl2_inner(
    group: GroupSpec, hbar0: float, s: float, F: BandLimitedFunction, Fp: BandLimitedFunction
) -> complex:
    """Holomorphic L2 inner product against the averaged measure, analytically.

    Blockwise sum_R (1/d_R) e^{+hbar c_R} sum_ij conj(F^R_ij) F'^R_ij.
    """
    hbar = hbar0 * s
    total = 0.0 + 0.0j
    for label in sorted(set(F.blocks) & set(Fp.blocks)):
        d = dim_irrep(group, label)
        total += (
            math.exp(hbar * casimir(group, label))
            * np.vdot(F.blocks[label], Fp.blocks[label])
            / d
        )
    return complex(total)


def hl2_inner_quadrature(
    group: GroupSpec,
    hbar0: float,
    s: float,
    F: BandLimitedFunction,
    Fp: BandLimitedFunction,
    points: int = 28,
):
    """Quadrature route for the holomorphic inner product, as (value, error).

    Integrates over the polar slice: the compact direction is summed by
    Schur orthogonality, the algebra direction by a Gauss-Hermite rule
    matched to the Gaussian of the measure.  Available where matrix
    elements are realized (tori and SU(2)).
    """
    if group.kind == "su3":
        raise ValueError("quadrature route is available on tori and SU(2) only")
    if s <= 0.0:
        raise ValueError("the averaged measure needs s > 0")
    hbar = hbar0 * s
    labels = sorted(set(F.blocks) & set(Fp.blocks))

    def integrand(Y):
        gc = group_exp(group, Y, 1j)
        total = np.zeros(len(Y), dtype=complex)
        for label in labels:
            Mt = np.swapaxes(_irrep_matrices(group, label, gc), -1, -2)
            A = F.blocks[label] @ Mt
            B = Fp.blocks[label] @ Mt
            total += np.einsum("nij,nij->n", A.conj(), B) / dim_irrep(group, label)
        return total * eta(group, Y) * np.exp(-np.sum(Y * Y, axis=1) / hbar)

    quad = quadrature.hermite_quadrature(group, points, scale=math.sqrt(hbar))
    value, err = quadrature.integrate_algebra(integrand, quad)
    norm = a_s(group, hbar0, s) * s ** (group.dim / 2.0)
    return value / norm, err / norm
