"""Band-limited function spaces and the coherent state transform.

Functions on the group live in the dense span of matrix elements,
f(x) = sum_R sum_ij f^R_ij R_ij(x), stored as one complex d_R x d_R
block per irrep.  Holomorphic extensions to the complexified group use
the same tables: analytic continuation is coefficientwise, so the
transform and both inner products act block by block.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import quadrature
from .groups import (
    GroupSpec,
    character_element,
    casimir,
    dim_irrep,
    enumerate_irreps,
    group_exp,
    make_irrep,
    wigner_matrix,
)
from .halfform import eta


@dataclasses.dataclass(frozen=True, eq=False)
class BandLimitedFunction:
    """Finite coefficient table {irrep label: d_R x d_R complex block}.

    Represents f(x) = sum_R sum_ij f^R_ij R_ij(x); the same table read
    through analytically continued matrix elements represents the
    holomorphic extension to the complexified group.
    """

    group: GroupSpec
    blocks: dict

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
    group: GroupSpec, casimir_cutoff: float, rng: np.random.Generator
) -> BandLimitedFunction:
    """Random complex-Gaussian coefficient table up to the Casimir cutoff."""
    blocks = {}
    for irrep in enumerate_irreps(group, casimir_cutoff):
        d = irrep.dim
        blocks[irrep.label] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
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


def _su2_conjugation_intertwiner(d: int) -> np.ndarray:
    C = np.zeros((d, d))
    for a in range(d):
        C[a, d - 1 - a] = (-1.0) ** a
    return C


def a_s(group: GroupSpec, hbar0: float, s: float) -> float:
    """Half-form normalization (pi hbar0)^{n/2} e^{|rho|^2 hbar0 s}.

    Satisfies a_{(s+s')/2} = sqrt(a_s a_{s'}) exactly.
    """
    if hbar0 <= 0.0:
        raise ValueError("hbar0 must be positive")
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return (math.pi * hbar0) ** (group.dim / 2.0) * math.exp(group.rho_norm_sq * hbar0 * s)


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


def measure_integral(
    group: GroupSpec, hbar0: float, s: float, F, points: int, degree: int, shape: tuple = ()
):
    """Integral of F against the averaged measure, as (value, error).

    The measure is nu_s = eta(Y) e^{-|Y|^2/(s hbar0)} dY / (a_s s^{n/2});
    F follows the batched contract of ``quadrature.integrate_algebra``,
    one value of ``shape`` per node.  The rule is matched to the
    Gaussian of the measure: the tensor Gauss-Hermite rule of ``points``
    per coordinate at scale sqrt(s hbar0) on tori, and on SU(2) the
    spherical-radial rule with ``points`` radial nodes on (0, inf) and
    sphere degree ``degree``.  Available where matrix elements are
    realized (tori and SU(2)).
    """
    if group.kind == "su3":
        raise ValueError("the averaged-measure integral is built on tori and SU(2) only")
    if s <= 0.0:
        raise ValueError("the averaged measure needs s > 0")
    hbar = hbar0 * s
    if group.kind == "su2":
        quad = quadrature.spherical_radial(group, points, math.sqrt(hbar), degree)
    else:
        quad = quadrature.hermite_quadrature(group, points, scale=math.sqrt(hbar))

    def weighted(Y):
        weight = eta(group, Y) * np.exp(-np.sum(Y * Y, axis=1) / hbar)
        return F(Y) * weight.reshape((-1,) + (1,) * len(shape))

    value, err = quadrature.integrate_algebra(weighted, quad, shape)
    norm = a_s(group, hbar0, s) * s ** (group.dim / 2.0)
    return value / norm, err / norm


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
    Schur orthogonality, the algebra direction by ``measure_integral``
    with ``points`` per rule and, on SU(2), sphere degree the largest
    label in F and F'.
    """
    labels = sorted(set(F.blocks) & set(Fp.blocks))
    dims = {label: dim_irrep(group, label) for label in labels}

    def integrand(Y):
        gc = group_exp(group, Y, 1j)
        total = np.zeros(len(Y), dtype=complex)
        for label, d in dims.items():
            Mt = np.swapaxes(_irrep_matrices(group, label, gc), -1, -2)
            A = F.blocks[label] @ Mt
            B = Fp.blocks[label] @ Mt
            total += np.einsum("nij,nij->n", A.conj(), B) / d
        return total

    degree = max((label[0] for label in labels), default=0)
    return measure_integral(group, hbar0, s, integrand, points, degree)
