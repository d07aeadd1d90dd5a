"""Band-limited functions, the transform, and the holomorphic inner
product.

test_hl2_tensor_grid_oracle integrates |C f|^2 over the complexification
with a quadrature assembled outside the package (the Euler-angle rule of
the test oracles x a tensor Hermite grid, closed-form 2x2 exponentials),
so the measure normalization is checked against something that shares no
code with the library's integrators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_hermite

import oracles
from bksverify import groups, halfform, heat, quadrature

TORUS = groups.group_spec("torus", n=1)
TORUS2 = groups.group_spec("torus", n=2)
SU2 = groups.group_spec("su2")
SU3 = groups.group_spec("su3")

# pi^{3/2} e^{|rho|^2} at hbar0 = s = 1, from the closed-form scale
A1_SU2 = 8274.77449197795
A1_SU3 = 21081928412.0971


def test_a_s_closed_values():
    assert heat.a_s(TORUS, 1.0, 3.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert heat.a_s(TORUS2, 0.5, 1.7) == pytest.approx(math.pi * 0.5, rel=1e-14)
    assert heat.a_s(SU2, 1.0, 0.0) == pytest.approx(math.pi ** 1.5, rel=1e-14)
    assert heat.a_s(SU2, 1.0, 1.0) == pytest.approx(A1_SU2, rel=1e-11)
    assert heat.a_s(SU3, 1.0, 1.0) == pytest.approx(A1_SU3, rel=1e-11)


@given(st.floats(min_value=0.0, max_value=6.0), st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_a_midpoint_identity(s, sp):
    mid = heat.a_s(SU2, 1.0, (s + sp) / 2.0)
    assert mid * mid == pytest.approx(heat.a_s(SU2, 1.0, s) * heat.a_s(SU2, 1.0, sp), rel=1e-12)


def test_nu_density_closed_forms():
    Y = np.array([0.3])
    want = math.exp(-0.09) / math.sqrt(math.pi)
    assert oracles.nu_density(TORUS, 1.0, 1.0, Y) == pytest.approx(want, rel=1e-13)
    s = 0.7
    at_zero = 1.0 / (heat.a_s(SU2, 1.0, s) * s ** 1.5)
    assert oracles.nu_density(SU2, 1.0, s, np.zeros(3)) == pytest.approx(at_zero, rel=1e-12)


def test_nu_density_unit_mass_su2():
    s, hbar0 = 1.0, 1.0
    quad = quadrature.hermite_quadrature(SU2, 40, scale=math.sqrt(hbar0 * s))
    # batched integrand: (N, 3) nodes -> (N,) values
    val, _ = quadrature.integrate_algebra(
        lambda Y: oracles.nu_density(SU2, hbar0, s, Y)
        * halfform.omega_norm_sq(SU2, s, Y), quad)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_l2_inner_peter_weyl_vs_group_quadrature():
    rng = np.random.default_rng(2)
    f = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    fp = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    want = heat.l2_inner(f, fp)
    direct = oracles.integrate_group(
        lambda g: np.conj(oracles.evaluate_function(f, g)) * oracles.evaluate_function(fp, g),
        oracles.euler_rule(16))
    assert direct == pytest.approx(want, abs=1e-8)


def test_l2_inner_torus_trapezoid():
    rng = np.random.default_rng(3)
    band = 25 * 4 * math.pi ** 2 + 1e-9
    f = heat.random_band_limited(TORUS, band, rng)
    fp = heat.random_band_limited(TORUS, band, rng)
    want = heat.l2_inner(f, fp)
    direct = oracles.integrate_group(
        lambda g: np.conj(oracles.evaluate_function(f, g)) * oracles.evaluate_function(fp, g),
        oracles.torus_rule(TORUS, 32))
    assert direct == pytest.approx(want, abs=1e-12)


def test_matrix_element_function_evaluates_to_wigner_entry():
    rng = np.random.default_rng(4)
    g = groups.random_element(SU2, rng)
    f = heat.matrix_element_function(SU2, (2,), 0, 1)
    assert oracles.evaluate_function(f, g) == pytest.approx(
        groups.wigner_matrix(1.0, g)[0, 1], abs=1e-12)


def test_cst_forward_is_heat_semigroup():
    rng = np.random.default_rng(6)
    f = heat.random_band_limited(SU2, groups.casimir(SU2, (3,)) + 1e-9, rng)
    assert heat.cst_forward(0.0, f) is not None
    np.testing.assert_allclose(
        heat.cst_forward(0.0, f).blocks[(1,)], f.blocks[(1,)], atol=0)
    a = heat.cst_forward(0.3, heat.cst_forward(0.9, f))
    b = heat.cst_forward(1.2, f)
    for label in f.labels():
        np.testing.assert_allclose(a.blocks[label], b.blocks[label], rtol=1e-13)


def test_cst_forward_eigenfunction_line():
    f = heat.matrix_element_function(TORUS, (3,), 0, 0)
    F = heat.cst_forward(0.2, f)
    c3 = groups.casimir(TORUS, (3,))
    assert F.blocks[(3,)][0, 0] == pytest.approx(math.exp(-0.1 * c3), rel=1e-14)


def test_hl2_inner_block_diagonal():
    hbar0, s = 1.0, 0.25
    hbar = hbar0 * s
    F = heat.matrix_element_function(SU2, (1,), 0, 0)
    Fp = heat.matrix_element_function(SU2, (1,), 1, 1)
    c = groups.casimir(SU2, (1,))
    self_val = heat.hl2_inner(SU2, hbar0, s, F, F)
    assert self_val == pytest.approx(math.exp(hbar * c) / 2.0, rel=1e-12)
    assert heat.hl2_inner(SU2, hbar0, s, F, Fp) == pytest.approx(0.0, abs=1e-14)
    G = heat.matrix_element_function(SU2, (2,), 0, 0)
    assert heat.hl2_inner(SU2, hbar0, s, F, G) == pytest.approx(0.0, abs=1e-14)


def test_cst_unitarity_analytic():
    rng = np.random.default_rng(8)
    for group, band in ((SU2, groups.casimir(SU2, (4,)) + 1e-9),
                        (TORUS, 25 * 4 * math.pi ** 2 + 1e-9)):
        f = heat.random_band_limited(group, band, rng)
        fp = heat.random_band_limited(group, band, rng)
        want = heat.l2_inner(f, fp)
        s, hbar0 = 0.35, 1.0
        F = heat.cst_forward(s * hbar0, f)
        Fp = heat.cst_forward(s * hbar0, fp)
        got = heat.hl2_inner(group, hbar0, s, F, Fp)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_hl2_quadrature_matches_analytic():
    hbar0, s = 0.1, 1.0
    F = heat.cst_forward(hbar0 * s, heat.matrix_element_function(SU2, (1,), 0, 1))
    want = heat.hl2_inner(SU2, hbar0, s, F, F)
    got, est = heat.hl2_inner_quadrature(SU2, hbar0, s, F, F, points=28)
    assert abs(got - want) <= 1e-4 * abs(want)
    F2 = heat.cst_forward(hbar0 * s, heat.matrix_element_function(TORUS, (2,), 0, 0))
    want2 = heat.hl2_inner(TORUS, hbar0, s, F2, F2)
    got2, _ = heat.hl2_inner_quadrature(TORUS, hbar0, s, F2, F2, points=64)
    assert abs(got2 - want2) <= 1e-6 * abs(want2)


def test_hl2_su3_quadrature_unsupported():
    F = heat.matrix_element_function(SU3, (1, 0), 0, 0)
    with pytest.raises(ValueError):
        heat.hl2_inner_quadrature(SU3, 1.0, 1.0, F, F)


def _hermite_grid(p, sigma):
    x, w = roots_hermite(p)
    det = np.exp(np.log(w) + x * x)
    Y = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3) * sigma
    W = (det[:, None, None] * det[None, :, None] * det[None, None, :]).reshape(-1) * sigma ** 3
    return Y, W


def test_hl2_tensor_grid_oracle():
    # from-scratch quadrature of <Cf, Cf> over the complexification for
    # f = R_{00} at j = 1/2: Euler-angle Haar rule, closed-form 2x2
    # exponentials e^{i s Y.E} = cosh |v| + sinh |v| vhat.sigma with
    # v = Y / sqrt(2 lam), and nu times the |Omega_s|^2 pullback.  The
    # transform is unitary, so the target is |R_{00}|^2_L2 = 1/2.
    hbar0, s = 0.25, 1.0
    hbar = hbar0 * s
    lam = SU2.scale
    c = groups.casimir(SU2, (1,))

    gx, wx = oracles.euler_rule(8)
    Y, wY = _hermite_grid(20, math.sqrt(hbar))
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                     dtype=complex)
    v = Y / math.sqrt(2 * lam)
    r = np.linalg.norm(v, axis=1)
    vhat = np.divide(v, np.maximum(r, 1e-300)[:, None])
    vs = np.einsum("na,aij->nij", vhat, pauli)
    W2 = np.cosh(s * r)[:, None, None] * np.eye(2) + np.sinh(s * r)[:, None, None] * vs

    k = len(Y) // 3
    np.testing.assert_allclose(W2[k], groups.group_exp(SU2, Y[k], factor=1j * s), atol=1e-12)

    meas = oracles.nu_density(SU2, hbar0, s, Y) * halfform.omega_norm_sq(SU2, s, Y)
    amp = math.exp(-hbar * c / 2)
    u00 = np.einsum("xab,nbc->xnac", gx, W2)[:, :, 0, 0]
    val = float(np.einsum("x,n,xn->", wx, wY * meas, (amp ** 2) * np.abs(u00) ** 2))
    assert val == pytest.approx(0.5, abs=2e-9)


def test_band_limit_reported():
    f = heat.matrix_element_function(SU2, (3,), 0, 0)
    band = max(groups.casimir(SU2, label) for label in f.blocks)
    assert band == pytest.approx(groups.casimir(SU2, (3,)))


def test_evaluate_su3_function_unsupported():
    f = heat.matrix_element_function(SU3, (1, 0), 0, 0)
    with pytest.raises(ValueError):
        oracles.evaluate_function(f, np.eye(3, dtype=complex))
