"""Structure constants and representation data against independent oracles.

The unit-volume scales have closed forms: the bi-invariant metric -tr(XY)
makes SU(2) a round 3-sphere of radius sqrt(2), so its volume is
2^{3/2} * 2 pi^2, and the SU(3) volume in the same metric is
2^4 * sqrt(3) * pi^5.  Rescaling the metric by lam multiplies the volume
by lam^{dim/2}, which pins lam for unit volume.  Everything else
(|rho|^2, Casimirs) follows from these by exact algebra, so the frozen
values below are independent of the library code paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bksverify import groups

SU2_SCALE = (2.0 ** 1.5 * 2.0 * math.pi ** 2) ** (-2.0 / 3.0)
SU3_SCALE = (2.0 ** 4 * math.sqrt(3.0) * math.pi ** 5) ** (-0.25)
SU2_RHO_SQ = 1.0 / (2.0 * SU2_SCALE)   # = (2 pi^2)^{2/3}
SU3_RHO_SQ = 2.0 / SU3_SCALE


def test_calibrated_scales_match_closed_forms():
    assert groups.calibrate_scale("su2") == pytest.approx(SU2_SCALE, rel=1e-14)
    assert groups.calibrate_scale("su3") == pytest.approx(SU3_SCALE, rel=1e-14)
    assert groups.calibrate_scale("torus") == pytest.approx(1.0 / (4 * math.pi ** 2), rel=1e-14)


def test_rho_norms():
    assert groups.group_spec("torus", n=3).rho_norm_sq == 0.0
    assert groups.group_spec("su2").rho_norm_sq == pytest.approx(SU2_RHO_SQ, rel=1e-13)
    assert groups.group_spec("su3").rho_norm_sq == pytest.approx(SU3_RHO_SQ, rel=1e-13)


def test_dimensions_and_ranks():
    for kind, n, dim, rank in (("torus", 2, 2, 2), ("su2", 1, 3, 1), ("su3", 1, 8, 2)):
        g = groups.group_spec(kind, n=n)
        assert (g.dim, g.rank) == (dim, rank)


def test_weyl_dimension_formula_is_integral():
    su2 = groups.group_spec("su2")
    for m in range(7):
        assert groups.make_irrep(su2, (m,)).dim == m + 1
    su3 = groups.group_spec("su3")
    for label, d in (((0, 0), 1), ((1, 0), 3), ((0, 1), 3), ((1, 1), 8),
                     ((2, 0), 6), ((2, 1), 15), ((2, 2), 27), ((3, 0), 10)):
        assert groups.make_irrep(su3, label).dim == d


def test_su2_casimir_closed_form():
    # c(m) = ((m+1)^2 - 1) |rho|^2 in the unit-volume metric
    su2 = groups.group_spec("su2")
    for m in range(6):
        expected = ((m + 1) ** 2 - 1) * SU2_RHO_SQ
        assert groups.casimir(su2, (m,)) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_su3_casimir_closed_form():
    # basic-metric values 8/3 (fundamental) and 6 (adjoint), divided by lam
    su3 = groups.group_spec("su3")
    assert groups.casimir(su3, (1, 0)) == pytest.approx((8.0 / 3.0) / SU3_SCALE, rel=1e-13)
    assert groups.casimir(su3, (0, 1)) == pytest.approx((8.0 / 3.0) / SU3_SCALE, rel=1e-13)
    assert groups.casimir(su3, (1, 1)) == pytest.approx(6.0 / SU3_SCALE, rel=1e-13)


def test_torus_casimir():
    g = groups.group_spec("torus", n=1)
    for k in range(-5, 6):
        assert groups.casimir(g, (k,)) == pytest.approx(k * k * 4 * math.pi ** 2, rel=1e-13, abs=1e-13)
    g2 = groups.group_spec("torus", n=2)
    assert groups.casimir(g2, (3, -4)) == pytest.approx(25 * 4 * math.pi ** 2, rel=1e-13)


def test_heat_trace_volume_is_one():
    # Sum_R d_R^2 e^{-t c_R/2} ~ vol(K) (2 pi t)^{-d/2} e^{t|rho|^2/2} as t -> 0,
    # with exponentially small corrections.  At t = 0.02 the truncation below
    # cutoff 6000 and the correction terms are both under 1e-12.
    for kind in ("su2", "su3"):
        g = groups.group_spec(kind)
        t = 0.02
        z = sum(ir.dim ** 2 * math.exp(-t * ir.casimir / 2)
                for ir in groups.enumerate_irreps(g, 6000.0))
        vol = z * (2 * math.pi * t) ** (g.dim / 2) * math.exp(-t * g.rho_norm_sq / 2)
        assert vol == pytest.approx(1.0, abs=5e-12)


def test_enumerate_irreps_sorted_and_complete():
    su2 = groups.group_spec("su2")
    irreps = groups.enumerate_irreps(su2, groups.casimir(su2, (4,)) + 1e-9)
    assert [ir.label for ir in irreps] == [(0,), (1,), (2,), (3,), (4,)]
    cs = [ir.casimir for ir in irreps]
    assert cs == sorted(cs)
    su3 = groups.group_spec("su3")
    labels = {ir.label for ir in groups.enumerate_irreps(su3, 6.01 / SU3_SCALE)}
    assert labels == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_make_irrep_builds_each_irrep_once_per_kind_scale_and_label():
    # shared across GroupSpecs of one kind and scale, whatever the label's
    # spelling; another normalization is another irrep
    a, b = groups.group_spec("su3"), groups.group_spec("su3")
    assert groups.make_irrep(a, (1, 1)) is groups.make_irrep(b, np.array([1, 1]))
    ref = groups.group_spec("su3", normalization="reference")
    assert groups.make_irrep(ref, (1, 1)).casimir != groups.make_irrep(a, (1, 1)).casimir
    assert groups.make_irrep(ref, (1, 1)).casimir == groups.casimir(ref, (1, 1))


def test_adjoint_weight_multiplicities():
    # 6 roots plus a two-dimensional zero weight space: 8 states
    su3 = groups.group_spec("su3")
    w, mults = groups.weights_with_multiplicities(su3, groups.make_irrep(su3, (1, 1)))
    assert int(mults.sum()) == 8
    zero = mults[np.linalg.norm(w, axis=1) < 1e-10]
    assert zero.tolist() == [2]


@pytest.mark.parametrize("label", [(1, 0), (0, 1), (1, 1), (2, 1), (3, 0), (2, 2)])
def test_su3_weight_table_gives_the_jacobi_trudi_character(label):
    # the Freudenthal table gives chi(e^{itH}) = sum mult e^{-t mu(H)} on
    # Cartan vectors H; the Jacobi-Trudi determinant on the eigenvalues of
    # the defining matrix never reads that table
    su3 = groups.group_spec("su3")
    irrep = groups.make_irrep(su3, label)
    rng = np.random.default_rng(31)
    H = rng.standard_normal((20, su3.rank)) * 0.8
    Y = np.zeros((20, su3.dim))
    Y[:, list(su3.cartan_indices)] = H
    t = 0.6
    mu, mult = groups.weights_with_multiplicities(su3, irrep)
    table = np.exp(-t * (H @ mu.T)) @ mult
    chi = oracles.su3_character_jacobi_trudi(label, groups.group_exp(su3, Y, 1j * t))
    np.testing.assert_allclose(chi, table, rtol=1e-10, atol=0.0)
    assert int(mult.sum()) == irrep.dim


def test_su2_weights_are_symmetric_ladders():
    su2 = groups.group_spec("su2")
    for m in (1, 2, 3, 4):
        w, mults = groups.weights_with_multiplicities(su2, groups.make_irrep(su2, (m,)))
        assert mults.tolist() == [1] * (m + 1)
        vals = sorted(w.ravel().tolist())
        np.testing.assert_allclose(vals, -np.array(vals)[::-1], atol=1e-12)
        # equally spaced
        diffs = np.diff(vals)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-12)


def test_wigner_unitary_and_homomorphism():
    rng = np.random.default_rng(7)
    su2 = groups.group_spec("su2")
    for _ in range(5):
        g1 = groups.random_element(su2, rng)
        g2 = groups.random_element(su2, rng)
        for j in (0.5, 1.0, 1.5):
            r1 = groups.wigner_matrix(j, g1)
            r2 = groups.wigner_matrix(j, g2)
            r12 = groups.wigner_matrix(j, g1 @ g2)
            np.testing.assert_allclose(r1 @ r2, r12, atol=1e-12)
            np.testing.assert_allclose(r1 @ r1.conj().T, np.eye(int(2 * j + 1)), atol=1e-12)


def test_wigner_spin_one_from_defining_rep():
    # brute-force spin-1 oracle: adjoint action on the su(2) basis in the
    # defining rep gives a real 3x3 rotation, unitarily equivalent to the
    # Wigner matrix; compare characters to avoid fixing the intertwiner.
    rng = np.random.default_rng(3)
    su2 = groups.group_spec("su2")
    basis = su2.defining
    for _ in range(5):
        g = groups.random_element(su2, rng)
        adj = np.empty((3, 3))
        for b in range(3):
            x = g @ basis[b] @ g.conj().T
            for a in range(3):
                adj[a, b] = np.real(np.trace(basis[a].conj().T @ x)) / \
                    np.real(np.trace(basis[a].conj().T @ basis[a]))
        w = groups.wigner_matrix(1.0, g)
        assert np.trace(adj) == pytest.approx(np.real(np.trace(w)), abs=1e-10)


def test_character_equals_trace_of_wigner():
    rng = np.random.default_rng(11)
    su2 = groups.group_spec("su2")
    for _ in range(4):
        g = groups.random_element(su2, rng)
        for m in range(5):
            ir = groups.make_irrep(su2, (m,))
            chi = groups.character_element(su2, ir, g)
            tr = np.trace(groups.wigner_matrix(m / 2.0, g))
            assert chi == pytest.approx(tr, abs=1e-10)


def test_character_on_complexified_argument():
    # chi_j(e^{izH}) for diagonal H is a known exponential sum
    su2 = groups.group_spec("su2")
    Y = np.zeros(1)
    Y[0] = 0.37
    g = groups.group_exp(su2, np.array([0.0, 0.0, 0.37]), factor=1j)
    w, _ = groups.weights_with_multiplicities(su2, groups.make_irrep(su2, (2,)))
    ir = groups.make_irrep(su2, (2,))
    chi = groups.character_element(su2, ir, g)
    direct = sum(np.exp(1j * (1j * 0.37) * wv) for wv in w.ravel())
    assert chi == pytest.approx(direct, rel=1e-10)


def test_casimir_from_laplacian_on_matrix_elements():
    # right-invariant second derivatives of R_ij at a random point, computed
    # by finite differences along an orthonormal algebra basis
    su2 = groups.group_spec("su2")
    rng = np.random.default_rng(5)
    g = groups.random_element(su2, rng)
    h = 1e-4
    for m in (1, 2):
        j = m / 2.0
        r0 = groups.wigner_matrix(j, g)
        lap = np.zeros_like(r0)
        for a in range(3):
            # algebra coordinates are orthonormal in the calibrated metric
            Y = np.zeros(3)
            Y[a] = 1.0
            gp = groups.group_exp(su2, h * Y) @ g
            gm = groups.group_exp(su2, -h * Y) @ g
            lap += (groups.wigner_matrix(j, gp) - 2 * r0 + groups.wigner_matrix(j, gm)) / h ** 2
        c = groups.casimir(su2, (m,))
        np.testing.assert_allclose(lap, -c * r0, atol=2e-4 * max(1.0, c))


def test_schur_orthogonality_su2_euler_grid():
    # direct Euler-angle quadrature of int conj(R_ij) R'_kl dx
    rule = oracles.euler_rule(20)

    def entry(j, a, b):
        return lambda g: groups.wigner_matrix(j, g)[:, a, b]

    for (j1, a1, b1), (j2, a2, b2), want in (
        ((0.5, 0, 0), (0.5, 0, 0), 0.5),
        ((0.5, 0, 1), (0.5, 0, 1), 0.5),
        ((0.5, 0, 0), (0.5, 1, 1), 0.0),
        ((1.0, 1, 1), (1.0, 1, 1), 1.0 / 3.0),
        ((0.5, 0, 0), (1.0, 0, 0), 0.0),
        ((1.5, 2, 1), (1.5, 2, 1), 0.25),
    ):
        f1 = entry(j1, a1, b1)
        f2 = entry(j2, a2, b2)
        val = oracles.integrate_group(lambda g: np.conj(f1(g)) * f2(g), rule)
        assert val == pytest.approx(want, abs=1e-8)


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=20, deadline=None)
def test_scale_covariance_su2(m):
    # casimir and |rho|^2 scale as 1/lam between the two normalizations
    unit = groups.group_spec("su2", normalization="unit_volume")
    ref = groups.group_spec("su2", normalization="reference")
    ratio = ref.scale / unit.scale
    assert groups.casimir(unit, (m,)) * unit.scale == pytest.approx(
        groups.casimir(ref, (m,)) * ref.scale, rel=1e-12)
    if m == 0:
        assert unit.rho_norm_sq * unit.scale == pytest.approx(
            ref.rho_norm_sq * ref.scale, rel=1e-12)
    assert ratio > 0


def test_random_element_is_unitary_unimodular():
    rng = np.random.default_rng(0)
    for kind in ("su2", "su3"):
        g = groups.group_spec(kind)
        u = groups.random_element(g, rng)
        n = u.shape[0]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_group_exp_matches_scipy_expm():
    from scipy.linalg import expm

    su3 = groups.group_spec("su3")
    rng = np.random.default_rng(2)
    Y = rng.standard_normal(8)
    X = np.tensordot(Y, su3.defining, axes=1)
    np.testing.assert_allclose(groups.group_exp(su3, Y), expm(X), atol=1e-12)
    np.testing.assert_allclose(groups.group_exp(su3, Y, factor=1j), expm(1j * X), atol=1e-11)


def _su2_batch():
    # random directions and radii, plus Y = 0, |Y| = 1e-12 and |Y| near 30
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((64, 3)) * rng.uniform(0.0, 4.0, (64, 1))
    Y[0] = 0.0
    Y[1] *= 1e-12 / np.linalg.norm(Y[1])
    Y[2] *= 30.0 / np.linalg.norm(Y[2])
    Y[3] = [0.0, 0.0, -29.7]
    return Y


@pytest.mark.parametrize("factor", [1.0, 1.3j, -2.1j])
def test_su2_group_exp_closed_form_matches_eigen_solve(factor):
    su2 = groups.group_spec("su2")
    Y = _su2_batch()
    g = groups.group_exp(su2, Y, factor)
    ref = oracles.group_exp_eigh(su2, Y, factor)
    assert g.shape == (len(Y), 2, 2)
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(np.abs(g - ref).max(axis=(1, 2)) <= 1e-13 * scale)
    np.testing.assert_array_equal(g[0], np.eye(2))
    np.testing.assert_allclose(groups.group_exp(su2, Y[2], factor), g[2], rtol=1e-14, atol=0.0)
    if factor == 1.0:
        # 1e-12 is the determinant tolerance of wigner_matrix
        np.testing.assert_allclose(g @ np.conj(np.swapaxes(g, 1, 2)),
                                   np.broadcast_to(np.eye(2), g.shape), rtol=0.0, atol=1e-12)
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        assert np.all(np.abs(det - 1.0) <= 1e-12)


def test_su2_root_values_closed_form_matches_eigen_solve():
    su2 = groups.group_spec("su2")
    Y = _su2_batch()
    values = groups.root_values(su2, Y)
    ref = oracles.root_values_eigvalsh(su2, Y)
    assert values.shape == (len(Y), 1)
    assert groups.root_values(su2, Y[2]).shape == (1,)
    assert values[0, 0] == 0.0 and np.all(values >= 0.0)
    np.testing.assert_allclose(values, ref, rtol=1e-13, atol=1e-13)
    # atol hides the |Y| = 1e-12 row, so check it against |Y| alpha(H)
    assert values[1, 0] == pytest.approx(1e-12 * su2.positive_roots[0, 0], rel=1e-14)


def test_torus_group_spec_describe_roundtrip():
    g = groups.group_spec("torus", n=2)
    text = g.describe()
    assert "U(1)^2" in text and "unit_volume" in text


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_batched_elements_and_characters_match_one_element_calls(kind):
    # a stack of N nodes gives the N one-node results: group_exp from the
    # closed form on SU(2) and one stacked eigen-solve on SU(3), characters
    # from stacked eigenvalues (not from the weight table) on tori and
    # SU(2), Wigner matrices from one monomial table
    group = groups.group_spec(kind, n=2)
    rng = np.random.default_rng(21)
    Y = rng.standard_normal((25, group.dim)) * 0.6
    g = groups.group_exp(group, Y, 0.8j)
    np.testing.assert_allclose(g, np.array([groups.group_exp(group, y, 0.8j) for y in Y]),
                               rtol=1e-14, atol=0.0)
    if kind == "su3":
        with pytest.raises(ValueError, match="tori and SU\\(2\\)"):
            groups.character_element(group, groups.make_irrep(group, (1, 0)), g)
        return
    labels = {"torus": [(1, -2), (0, 3)], "su2": [(0,), (1,), (4,)]}[kind]
    for label in labels:
        irrep = groups.make_irrep(group, label)
        chi = groups.character_element(group, irrep, g)
        one = np.array([groups.character_element(group, irrep, x) for x in g])
        np.testing.assert_allclose(chi, one, rtol=1e-14, err_msg=str(label))
        if kind == "su2":
            W = groups.wigner_matrix(label[0] / 2.0, g)
            one_w = np.array([groups.wigner_matrix(label[0] / 2.0, x) for x in g])
            np.testing.assert_allclose(W, one_w, rtol=1e-14, atol=0.0)


def test_wigner_rejects_bad_determinant_in_a_stack():
    su2 = groups.group_spec("su2")
    g = groups.group_exp(su2, np.zeros((3, 3)))
    g[1] *= 1.01
    with pytest.raises(ValueError, match="determinant"):
        groups.wigner_matrix(0.5, g)
