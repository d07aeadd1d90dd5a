"""Compact Lie group data for heat-kernel harmonic analysis.

Supported groups are tori U(1)^n, SU(2) and SU(3).  A :class:`GroupSpec`
fixes an Ad-invariant inner product on the Lie algebra as a multiple of a
reference form and carries root data, the Weyl group, structure constants
and defining-representation generators, all expressed in an orthonormal
basis for that inner product.  Every downstream object (half-form
densities, heat kernels, pairings, quadrature rules) reads its
normalization from here, so the conventions are fixed in exactly one
place:

* reference form: ``-tr(XY)`` in the defining representation for SU(2)
  and SU(3), ``|d/dtheta| = 1`` per circle factor for tori;
* ``scale``: the inner product in force is ``scale`` times the reference
  form.  The default calibration picks the scale giving the group unit
  Riemannian volume, so the Riemannian measure is the Haar probability
  measure and the heat kernel is normalized against it;
* weights and roots live in the dual of the Cartan subalgebra and are
  stored in coordinates dual to an orthonormal basis of it, so pairings
  are plain dot products;
* a torus element ``exp(Y)`` acts on the weight-``mu`` vector of a
  representation by ``exp(i mu(Y))``.

SU(2) irreps are labelled by doubled spins ``(2j,)`` so labels stay
integer tuples; SU(3) irreps by Dynkin labels ``(p, q)``; torus irreps by
integer frequency vectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "GroupSpec",
    "Irrep",
    "ad_matrix",
    "calibrate_scale",
    "casimir",
    "dim_irrep",
    "enumerate_irreps",
    "make_irrep",
    "su2_group",
    "su3_group",
    "torus_group",
    "weights_with_multiplicities",
    "wigner_matrix",
]

SU2_REFERENCE_VOLUME = 4.0 * math.sqrt(2.0) * math.pi**2
SU3_REFERENCE_VOLUME = 16.0 * math.sqrt(3.0) * math.pi**5

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_GELL_MANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / math.sqrt(3.0),
)

# Nonzero structure constants of su(3) in the Gell-Mann basis, 1-indexed.
_SU3_F = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5,
    (1, 6, 5): 0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (3, 7, 6): 0.5,
    (4, 5, 8): math.sqrt(3.0) / 2.0,
    (6, 7, 8): math.sqrt(3.0) / 2.0,
}


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation: label, highest weight, dimension, Casimir.

    ``label`` is the integer tuple naming the irrep (frequencies, doubled
    spin, or Dynkin labels), ``weight`` the highest-weight coordinates in
    the orthonormal dual basis of the Cartan subalgebra.  ``casimir`` is
    the eigenvalue of minus the Laplace-Beltrami operator on matrix
    elements, ``<w, w + 2 rho>`` for the inner product in force.
    """

    label: tuple
    weight: tuple
    dim: int
    casimir: float


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Conventions for one compact group at one inner-product scale."""

    kind: str
    dim: int
    rank: int
    scale: float
    normalization: str
    positive_roots: np.ndarray
    rho: np.ndarray
    weyl_order: int  # |W|, read by the Weyl-reduced character integrals
    ad_basis: np.ndarray
    cartan_indices: tuple
    defining: np.ndarray | None

    @property
    def n_positive_roots(self) -> int:
        return self.positive_roots.shape[0]

    @property
    def rho_norm_sq(self) -> float:
        return float(np.dot(self.rho, self.rho))

    def describe(self) -> str:
        name = {"torus": f"U(1)^{self.rank}", "su2": "SU(2)", "su3": "SU(3)"}[self.kind]
        return f"{name} [{self.normalization}, scale={self.scale:.9g}]"


def calibrate_scale(kind: str) -> float:
    """Inner-product scale (relative to the reference form) for unit volume.

    The Riemannian volume of the group under ``scale * reference`` is
    ``scale**(dim/2)`` times the reference volume; unit volume fixes the
    scale.  For a torus the circles each acquire length one, so the
    vector field d/dtheta gets norm 1/(2 pi) and the frequency-k Casimir
    becomes 4 pi^2 k^2.
    """
    if kind == "torus":
        return 1.0 / (4.0 * math.pi**2)
    if kind == "su2":
        return SU2_REFERENCE_VOLUME ** (-2.0 / 3.0)
    if kind == "su3":
        return SU3_REFERENCE_VOLUME ** (-0.25)
    raise ValueError(f"unknown group kind {kind!r}")


def _resolve_scale(kind: str, normalization: str) -> float:
    if normalization == "unit_volume":
        return calibrate_scale(kind)
    if normalization == "reference":
        return 1.0
    raise ValueError(f"unknown normalization {normalization!r}")


def torus_group(n: int = 1, normalization: str = "unit_volume") -> GroupSpec:
    """U(1)^n with the flat metric at the requested normalization."""
    if n < 1:
        raise ValueError("torus rank must be positive")
    scale = _resolve_scale("torus", normalization)
    return GroupSpec(
        kind="torus",
        dim=n,
        rank=n,
        scale=scale,
        normalization=normalization,
        positive_roots=np.zeros((0, n)),
        rho=np.zeros(n),
        weyl_order=1,
        ad_basis=np.zeros((n, n, n)),
        cartan_indices=tuple(range(n)),
        defining=None,
    )


def su2_group(normalization: str = "unit_volume") -> GroupSpec:
    scale = _resolve_scale("su2", normalization)
    root = np.array([[math.sqrt(2.0 / scale)]])
    f = np.zeros((3, 3, 3))
    coupling = math.sqrt(2.0 / scale)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[a, b, c] = coupling
        f[b, a, c] = -coupling
    ad_basis = np.transpose(f, (0, 2, 1))
    defining = np.stack([-1j * s / math.sqrt(2.0 * scale) for s in _PAULI])
    return GroupSpec(
        kind="su2",
        dim=3,
        rank=1,
        scale=scale,
        normalization=normalization,
        positive_roots=root,
        rho=root[0] / 2.0,
        weyl_order=2,
        ad_basis=ad_basis,
        cartan_indices=(2,),
        defining=defining,
    )


def su3_group(normalization: str = "unit_volume") -> GroupSpec:
    scale = _resolve_scale("su3", normalization)
    s = 1.0 / math.sqrt(scale)
    alpha12 = np.array([math.sqrt(2.0), 0.0]) * s
    alpha23 = np.array([-math.sqrt(2.0) / 2.0, math.sqrt(6.0) / 2.0]) * s
    alpha13 = alpha12 + alpha23
    roots = np.stack([alpha12, alpha23, alpha13])
    f = np.zeros((8, 8, 8))
    coupling = math.sqrt(2.0 / scale)
    for (a, b, c), val in _SU3_F.items():
        for (x, y, z), sgn in (
            ((a, b, c), 1.0), ((b, c, a), 1.0), ((c, a, b), 1.0),
            ((b, a, c), -1.0), ((a, c, b), -1.0), ((c, b, a), -1.0),
        ):
            f[x - 1, y - 1, z - 1] = sgn * val * coupling
    ad_basis = np.transpose(f, (0, 2, 1))
    # Conjugate-fundamental generators so the stored 3x3 representation has
    # highest weight (1,0) under the exp(i mu(Y)) convention.
    defining = np.stack([1j * g.conj() / math.sqrt(2.0 * scale) for g in _GELL_MANN])
    return GroupSpec(
        kind="su3",
        dim=8,
        rank=2,
        scale=scale,
        normalization=normalization,
        positive_roots=roots,
        rho=0.5 * roots.sum(axis=0),
        weyl_order=6,
        ad_basis=ad_basis,
        cartan_indices=(2, 7),
        defining=defining,
    )


def group_spec(kind: str, n: int = 1, normalization: str = "unit_volume") -> GroupSpec:
    """Factory dispatching on the group kind string."""
    if kind == "torus":
        return torus_group(n, normalization)
    if kind == "su2":
        return su2_group(normalization)
    if kind == "su3":
        return su3_group(normalization)
    raise ValueError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# irrep bookkeeping


def _check_label(group: GroupSpec, label) -> tuple:
    label = tuple(int(v) for v in np.atleast_1d(label))
    if group.kind == "torus":
        if len(label) != group.rank:
            raise ValueError(f"torus label must have {group.rank} entries")
    elif group.kind == "su2":
        if len(label) != 1 or label[0] < 0:
            raise ValueError("SU(2) label is a single nonnegative doubled spin")
    elif group.kind == "su3":
        if len(label) != 2 or min(label) < 0:
            raise ValueError("SU(3) label is a pair of nonnegative Dynkin labels")
    return label


def highest_weight(group: GroupSpec, label) -> np.ndarray:
    """Highest-weight coordinates in the orthonormal dual Cartan basis."""
    label = _check_label(group, label)
    s = 1.0 / math.sqrt(group.scale)
    if group.kind == "torus":
        return np.asarray(label, dtype=float) * s
    if group.kind == "su2":
        return np.array([label[0] / 2.0]) * math.sqrt(2.0) * s
    p, q = label
    return np.array([p / math.sqrt(2.0), (p + 2 * q) / math.sqrt(6.0)]) * s


def dim_irrep(group: GroupSpec, label) -> int:
    """Dimension by the Weyl formula in exact rational arithmetic."""
    label = _check_label(group, label)
    if group.kind == "torus":
        return 1
    if group.kind == "su2":
        value = Fraction(label[0] + 1, 2) / Fraction(1, 2)
    else:
        p, q = label
        lam3 = (2 * p + q + 3, q - p, -p - 2 * q - 3)  # 3*(lambda + rho) in theta coords
        rho3 = (3, 0, -3)
        value = Fraction(1)
        for j, k in ((0, 1), (0, 2), (1, 2)):
            value *= Fraction(lam3[j] - lam3[k], rho3[j] - rho3[k])
    if value.denominator != 1:
        raise ArithmeticError(f"Weyl dimension for {label} is not integral: {value}")
    return int(value)


def casimir(group: GroupSpec, label) -> float:
    """Casimir eigenvalue <w, w + 2 rho>; scales like 1/scale."""
    label = _check_label(group, label)
    if group.kind == "torus":
        raw = float(sum(k * k for k in label))
    elif group.kind == "su2":
        m = label[0]
        raw = m * (m + 2) / 2.0
    else:
        p, q = label
        raw = (2.0 / 3.0) * (p * p + q * q + p * q) + 2.0 * (p + q)
    return raw / group.scale


_IRREP_CACHE: dict = {}


def make_irrep(group: GroupSpec, label) -> Irrep:
    """The irrep of ``label``, built once per (kind, scale, label): Irrep
    is frozen, so every ask shares it."""
    label = _check_label(group, label)
    key = (group.kind, group.scale, label)
    if key not in _IRREP_CACHE:
        _IRREP_CACHE[key] = Irrep(
            label=label,
            weight=tuple(highest_weight(group, label)),
            dim=dim_irrep(group, label),
            casimir=casimir(group, label),
        )
    return _IRREP_CACHE[key]


def enumerate_irreps(group: GroupSpec, casimir_cutoff: float) -> list[Irrep]:
    """All irreps with Casimir at most the cutoff, sorted by (Casimir, label)."""
    if casimir_cutoff < 0:
        return []
    labels = []
    if group.kind == "torus":
        kmax = int(math.floor(math.sqrt(casimir_cutoff * group.scale) + 1e-9))
        ranges = [range(-kmax, kmax + 1)] * group.rank
        grid = np.meshgrid(*ranges, indexing="ij")
        for label in zip(*(g.ravel() for g in grid)):
            labels.append(tuple(int(v) for v in label))
    elif group.kind == "su2":
        m = 0
        while casimir(group, (m,)) <= casimir_cutoff + 1e-12:
            labels.append((m,))
            m += 1
    else:
        pmax = int(math.floor(math.sqrt(1.5 * casimir_cutoff * group.scale) + 2))
        for p in range(pmax + 1):
            for q in range(pmax + 1):
                labels.append((p, q))
    reps = [make_irrep(group, lab) for lab in labels]
    reps = [r for r in reps if r.casimir <= casimir_cutoff + 1e-12]
    reps.sort(key=lambda r: (r.casimir, r.label))
    return reps


# ---------------------------------------------------------------------------
# weight systems

_WEIGHT_CACHE: dict = {}


def weights_with_multiplicities(group: GroupSpec, irrep: Irrep) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the irrep with multiplicities.

    Returns ``(weights, mults)`` where ``weights`` has one row per weight
    in the orthonormal dual Cartan coordinates.  Torus and SU(2) systems
    are explicit; SU(3) multiplicities come from the Freudenthal
    recursion run level by level down the root cone.
    """
    key = (group.kind, group.scale, irrep.label)
    hit = _WEIGHT_CACHE.get(key)
    if hit is not None:
        return hit
    if group.kind == "torus":
        out = (np.asarray([irrep.weight], dtype=float), np.array([1]))
    elif group.kind == "su2":
        m = irrep.label[0]
        alpha = group.positive_roots[0]
        top = np.asarray(irrep.weight)
        rows = [top - k * alpha for k in range(m + 1)]
        out = (np.asarray(rows), np.ones(m + 1, dtype=int))
    else:
        out = _su3_weight_system(group, irrep)
    _WEIGHT_CACHE[key] = out
    return out


def _su3_weight_system(group: GroupSpec, irrep: Irrep) -> tuple[np.ndarray, np.ndarray]:
    p, q = irrep.label
    simple = group.positive_roots[:2]  # alpha12, alpha23
    cone = ((1, 0), (0, 1), (1, 1))  # positive roots in simple-root coordinates
    lam = np.asarray(irrep.weight)
    rho = group.rho
    lam_rho_sq = float(np.dot(lam + rho, lam + rho))
    mults: dict[tuple[int, int], int] = {(0, 0): 1}
    max_a = p + 2 * q
    max_b = 2 * p + q
    for level in range(1, max_a + max_b + 1):
        for a in range(0, min(level, max_a) + 1):
            b = level - a
            if b < 0 or b > max_b:
                continue
            mu = lam - a * simple[0] - b * simple[1]
            total = 0.0
            for alpha, (ca, cb) in zip(group.positive_roots, cone):
                k = 1
                while a - k * ca >= 0 and b - k * cb >= 0:
                    m_nu = mults.get((a - k * ca, b - k * cb), 0)
                    if m_nu:
                        total += 2.0 * m_nu * float(np.dot(mu + k * alpha, alpha))
                    k += 1
            denom = lam_rho_sq - float(np.dot(mu + rho, mu + rho))
            mult = 0 if denom <= 1e-9 else int(round(total / denom))
            if mult > 0:
                mults[(a, b)] = mult
    rows, counts = [], []
    for (a, b), m in sorted(mults.items()):
        rows.append(lam - a * simple[0] - b * simple[1])
        counts.append(m)
    return np.asarray(rows), np.asarray(counts, dtype=int)


# ---------------------------------------------------------------------------
# SU(2) matrix elements


@functools.lru_cache(maxsize=None)
def _wigner_terms(twoj: int):
    # Entry (row, col) of the spin-j matrix is a sum of monomials
    # a^ea b^eb c^ec d^ed in the entries of g: column col expands
    # (a u + c v)^(2j-col) (b u + d v)^col, row counts the powers of v.
    # Returns the exponents of every monomial and the matrix that sums
    # them, with their coefficients, into the flattened entries.
    dim = twoj + 1
    norms = [math.sqrt(math.factorial(twoj - k) * math.factorial(k)) for k in range(dim)]
    terms = []
    for col in range(dim):
        p1, p2 = twoj - col, col
        for i in range(p1 + 1):
            for m in range(p2 + 1):
                coef = math.comb(p1, i) * math.comb(p2, m) * norms[i + m] / norms[col]
                terms.append((p1 - i, p2 - m, i, m, (i + m) * dim + col, coef))
    ea, eb, ec, ed, pos, coef = (np.array(v) for v in zip(*terms))
    scatter = np.zeros((len(terms), dim * dim))
    scatter[np.arange(len(terms)), pos] = coef
    return ea, eb, ec, ed, scatter


def wigner_matrix(j, g) -> np.ndarray:
    """Spin-j representation matrix, holomorphic in the entries of g.

    The representation acts on degree-2j polynomials in two variables,
    with the monomial basis ordered by descending weight, so a diagonal
    ``g = diag(a, 1/a)`` maps to ``diag(a^(2j), ..., a^(-2j))`` and
    ``j = 1/2`` returns ``g`` itself.  ``g`` must be a 2x2 complex matrix
    (or an ``(N, 2, 2)`` stack, giving an ``(N, 2j+1, 2j+1)`` stack) with
    unit determinant to within 1e-12; the restriction to SU(2) is
    unitary.
    """
    twoj = int(round(2 * float(j)))
    if abs(2 * float(j) - twoj) > 1e-12 or twoj < 0:
        raise ValueError("j must be a nonnegative half-integer")
    g = np.asarray(g, dtype=complex)
    if g.ndim not in (2, 3) or g.shape[-2:] != (2, 2):
        raise ValueError("g must be a 2x2 matrix or a stack of them")
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    bound = 1e-12 * np.maximum(1.0, np.abs(g).max(axis=(-2, -1)) ** 2)
    bad = np.abs(det - 1.0) > bound
    if np.any(bad):
        raise ValueError(f"determinant {det[bad].flat[0]} is not 1 within tolerance")
    ea, eb, ec, ed, scatter = _wigner_terms(twoj)
    powers = g[..., None] ** np.arange(twoj + 1)
    monomials = powers[..., 0, 0, ea]
    monomials *= powers[..., 0, 1, eb]
    monomials *= powers[..., 1, 0, ec]
    monomials *= powers[..., 1, 1, ed]
    return (monomials @ scatter).reshape(g.shape[:-2] + (twoj + 1, twoj + 1))


# ---------------------------------------------------------------------------
# adjoint action and elements


def ad_matrix(group: GroupSpec, Y) -> np.ndarray:
    """Matrix of ad_Y in the orthonormal basis; real antisymmetric.

    Y of shape ``(dim,)`` gives one matrix, ``(N, dim)`` a stack of N.
    """
    Y = _algebra_vectors(group, Y)
    # einsum sums each entry in the same order whatever the batch size, so
    # a batch reproduces the one-vector results bit for bit
    return np.einsum("...a,abc->...bc", Y, group.ad_basis)


def root_values(group: GroupSpec, Y) -> np.ndarray:
    """Values alpha(Y') over positive roots for the Cartan representative of Y.

    Computed from the spectrum of ad_Y, so the input need not lie in the
    Cartan subalgebra; the result is Ad-invariant and sorted ascending.
    The assignment of values to individual roots is only defined up to
    the Weyl group, which suffices for the symmetric functions used here.
    A batch Y of shape ``(N, dim)`` gives one row per vector.  On SU(2)
    the one value is the closed form |Y| alpha(H) for the unit Cartan
    vector H; on SU(3) it comes from one stacked eigen-solve.
    """
    npos = group.n_positive_roots
    if npos == 0:
        return np.zeros(np.shape(Y)[:-1] + (0,))
    if group.kind == "su2":
        Y = _algebra_vectors(group, Y)
        return _norm(Y) * group.positive_roots[0, 0]
    A = ad_matrix(group, Y)
    eigs = np.linalg.eigvalsh(1j * A)
    return eigs[..., -npos:]


def _algebra_vectors(group: GroupSpec, Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim not in (1, 2) or Y.shape[-1] != group.dim:
        raise ValueError(f"Y must have {group.dim} coordinates")
    return Y


def _norm(Y: np.ndarray) -> np.ndarray:
    # |Y| along the last axis, kept as a length-1 axis
    return np.sqrt(np.sum(Y * Y, axis=-1, keepdims=True))


def algebra_element(group: GroupSpec, Y) -> np.ndarray:
    """Defining-representation matrix of the algebra vector Y."""
    if group.defining is None:
        raise ValueError("torus algebra vectors have no matrix realization here")
    Y = np.asarray(Y, dtype=float)
    return np.einsum("...a,abc->...bc", Y, group.defining)


def group_exp(group: GroupSpec, Y, factor: complex = 1.0):
    """Element exp(factor * Y) of the complexified group.

    Tori are represented by complex angle vectors that add under
    composition; SU(2) and SU(3) by defining-representation matrices.
    ``factor = 1`` lands in the compact group, ``factor = i s`` on the
    positive slice exp(i s Y).  A batch Y of shape ``(N, dim)`` gives N
    elements stacked along the first axis.  On SU(2), A = Y in the
    defining representation satisfies A^2 = -r^2 I with r = |Y| /
    sqrt(2 scale), so exp(cA) = cos(cr) I + (sin(cr)/r) A in closed form
    (the second coefficient is c at r = 0); SU(3) takes one stacked
    eigen-solve.
    """
    Y = np.asarray(Y, dtype=float)
    if group.kind == "torus":
        return factor * Y / math.sqrt(group.scale)
    A = algebra_element(group, Y)
    if group.kind == "su2":
        r = _norm(Y)[..., None] / math.sqrt(2.0 * group.scale)
        cr = factor * r
        nonzero = r > 0.0
        sin_over_r = np.where(nonzero, np.sin(cr) / np.where(nonzero, r, 1.0), factor)
        return sin_over_r * A + np.cos(cr) * np.eye(2)
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * factor * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


def random_element(group: GroupSpec, rng: np.random.Generator):
    """Haar sample: uniform angles, or QR of a Ginibre matrix det-normalized."""
    if group.kind == "torus":
        return rng.uniform(0.0, 2.0 * math.pi, group.rank)
    d = group.defining.shape[1]
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    qmat, rmat = np.linalg.qr(z)
    qmat = qmat * (np.diag(rmat) / np.abs(np.diag(rmat)))
    det = np.linalg.det(qmat)
    return qmat * det ** (-1.0 / d)


def character_element(group: GroupSpec, irrep: Irrep, g) -> complex:
    """Character evaluated on a stored group element (complexified allowed).

    Evaluated on tori and SU(2).  SU(2) characters come from the
    eigenvalues of the defining-representation matrix as finite geometric
    sums, so they are stable at Weyl-singular points.  A stack of N
    elements (angle vectors ``(N, rank)`` or matrices ``(N, 2, 2)``) gives
    an ``(N,)`` array from one stacked eigenvalue solve.
    """
    if group.kind == "torus":
        value = np.exp(1j * (np.asarray(g) @ np.asarray(irrep.label, dtype=float)))
    elif group.kind == "su2":
        eigs = np.linalg.eigvals(np.asarray(g, dtype=complex))
        m = irrep.label[0]
        top = np.argmax(np.abs(eigs), axis=-1)[..., None]
        x = np.take_along_axis(eigs, top, axis=-1)[..., 0]
        value = sum(x ** (m - 2 * k) for k in range(m + 1))
    else:
        raise ValueError("characters on group elements are evaluated on tori and SU(2) only")
    return complex(value) if np.ndim(value) == 0 else value
