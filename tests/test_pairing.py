"""Pairing layer: character-Gaussian integrals, the quantum pairing,
BKS factors, unitarity, factorization, vertical limit, delta
identities, and the prequantum contrast."""

import math

import numpy as np
import pytest

from bksverify import groups, halfform, heat, pairing, quadrature

TORUS = groups.group_spec("torus", n=1)
TORUS2 = groups.group_spec("torus", n=2)
SU2 = groups.group_spec("su2")
SU3 = groups.group_spec("su3")

# log of d_R (pi hbar0)^{3/2} e^{t hbar0 (c_R + |rho|^2)/2} at j=5/2, t=6
LOG_G_J52_T6 = 792.327043190514


def closed_G(group, hbar0, t, irrep):
    n = group.dim
    return irrep.dim * (math.pi * hbar0) ** (n / 2.0) * math.exp(
        t * hbar0 * (irrep.casimir + group.rho_norm_sq) / 2.0)


def char_gaussian_integral(group, hbar0, t, irrep, quad):
    # value-space G_R(t) with its error estimate, from the log-space entry
    [(logv, logerr)] = pairing.char_gaussian_log(group, hbar0, t, [irrep], quad)
    value = math.exp(logv)
    return value, value * logerr


def test_char_gaussian_torus_against_scalar_gaussian():
    # one honest 1D integral: the weight value on the calibrated circle is
    # 2 pi k, so int e^{-2 pi k t y - t y^2 / 2 hbar} (t/2)^{1/2} dy
    # = sqrt(pi hbar) e^{c_k t hbar / 2} with c_k = 4 pi^2 k^2
    hbar0, t, k = 1.0, 1.5, 1
    a = t / (2 * hbar0)
    b = 2 * math.pi * k * t
    scalar = math.sqrt(t / 2.0) * math.sqrt(math.pi / a) * math.exp(b * b / (4 * a))
    ir = groups.make_irrep(TORUS, (k,))
    quad = pairing.char_gaussian_quadrature(TORUS, hbar0, t, [ir])
    val, est = char_gaussian_integral(TORUS, hbar0, t, ir, quad)
    assert val == pytest.approx(scalar, rel=1e-10)
    assert val == pytest.approx(closed_G(TORUS, hbar0, t, ir), rel=1e-10)


def test_char_gaussian_trivial_rep_is_gaussian_mass():
    for group in (TORUS, SU2):
        ir = groups.make_irrep(group, (0,) * group.rank if group.kind == "torus" else (0,))
        quad = pairing.char_gaussian_quadrature(group, 1.0, 0.9, [ir])
        val, _ = char_gaussian_integral(group, 1.0, 0.9, ir, quad)
        want = closed_G(group, 1.0, 0.9, ir)
        assert val == pytest.approx(want, rel=1e-8)


def test_char_gaussian_su2_backends_agree():
    hbar0, t = 1.0, 1.0
    ir = groups.make_irrep(SU2, (1,))
    want = 2.0 * math.pi ** 1.5 * math.exp((ir.casimir + SU2.rho_norm_sq) / 2.0)
    quad_c = pairing.char_gaussian_quadrature(SU2, hbar0, t, [ir])
    vc, _ = char_gaussian_integral(SU2, hbar0, t, ir, quad_c)
    quad_h = quadrature.hermite_quadrature(SU2, 56, scale=math.sqrt(hbar0 / t))
    vh, _ = char_gaussian_integral(SU2, hbar0, t, ir, quad_h)
    assert vc == pytest.approx(want, rel=1e-8)
    assert vh == pytest.approx(want, rel=1e-6)


def test_hermite_route_never_reads_the_weight_table(monkeypatch):
    # the full Gauss-Hermite route takes characters from defining-matrix
    # eigenvalues, so it must stand with the weight table gone, while the
    # Cartan-reduced route needs it
    def no_table(*args):
        raise RuntimeError("weight table read")

    monkeypatch.setattr(pairing, "weights_with_multiplicities", no_table)
    ir = groups.make_irrep(SU2, (1,))
    quad_h = quadrature.hermite_quadrature(SU2, 56, scale=1.0)
    [(logv, _)] = pairing.char_gaussian_log(SU2, 1.0, 1.0, [ir], quad_h)
    assert math.exp(logv) == pytest.approx(closed_G(SU2, 1.0, 1.0, ir), rel=1e-6)
    quad_c = pairing.char_gaussian_quadrature(SU2, 1.0, 1.0, [ir])
    with pytest.raises(RuntimeError, match="weight table read"):
        pairing.char_gaussian_log(SU2, 1.0, 1.0, [ir], quad_c)


def test_char_log_table_computes_each_key_once(monkeypatch):
    ir = groups.make_irrep(SU2, (2,))
    # the stored pair is the one the Cartan rule of the same (t, irrep) gives
    char_gaussian_log = pairing.char_gaussian_log
    want = char_gaussian_log(SU2, 1.0, 1.5, [ir],
                             pairing.char_gaussian_quadrature(SU2, 1.0, 1.5, [ir]))
    calls = []

    def spy(group, hbar0, t, irreps, quad):
        calls.extend((t, irrep.label) for irrep in irreps)
        return char_gaussian_log(group, hbar0, t, irreps, quad)

    monkeypatch.setattr(pairing, "char_gaussian_log", spy)
    char_log = pairing.char_log_table(SU2, 1.0)
    assert char_log(1.5, [ir]) == want
    assert char_log(1.5, [groups.make_irrep(SU2, (2,))]) == want
    assert calls == [(1.5, (2,))]
    char_log(0.5, [ir])
    char_log(1.5, [groups.make_irrep(SU2, (1,))])
    assert calls[1:] == [(0.5, (2,)), (1.5, (1,))]
    # a new table holds nothing of the old one
    pairing.char_log_table(SU2, 1.0)(1.5, [ir])
    assert calls[-1] == (1.5, (2,)) and len(calls) == 4


@pytest.mark.parametrize("group, labels", [
    (TORUS, [(k,) for k in range(-5, 6)]),
    (SU2, [(m,) for m in range(10)]),          # 1 to 10 weights: across 8
    (SU3, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
], ids=["torus", "su2", "su3"])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_char_integral_bits_do_not_depend_on_the_batch(group, labels, t):
    # a (t, label) value is the same float alone, in the whole batch and in
    # the batch reversed, so no row depends on which family asked first
    irreps = [groups.make_irrep(group, lab) for lab in labels]

    def run(batch):
        quad = pairing.char_gaussian_quadrature(group, 1.0, t, batch)
        return dict(zip(map(id, batch), pairing.char_gaussian_log(group, 1.0, t, batch, quad)))

    alone = {k: v for ir in irreps for k, v in run([ir]).items()}
    assert run(irreps) == alone
    assert run(irreps[::-1]) == alone
    # node by node too: a rounding change at a few nodes can vanish in the
    # sum (padding each weight table to the longest moves 3 of 1,400 SU(2)
    # node values at t = 0.5 and no integral)
    Y = pairing.char_gaussian_quadrature(group, 1.0, t, irreps).nodes.reshape(len(irreps), -1,
                                                                              group.dim)
    stacked = pairing._char_log_integrand(group, 1.0, t, irreps)(Y)
    for i, ir in enumerate(irreps):
        single = pairing._char_log_integrand(group, 1.0, t, [ir])(Y[i:i + 1])
        np.testing.assert_array_equal(single[0], stacked[i])


def test_char_log_table_fills_the_band_at_a_missed_t(monkeypatch):
    # one miss at t computes the asked labels and the band labels not yet
    # stored at t, in one call; later asks at that t compute nothing
    band = [groups.make_irrep(TORUS, (k,)) for k in (1, -1, 2)]
    outside = groups.make_irrep(TORUS, (4,))
    char_gaussian_log = pairing.char_gaussian_log
    calls = []

    def spy(group, hbar0, t, irreps, quad):
        calls.append((t, [irrep.label for irrep in irreps]))
        return char_gaussian_log(group, hbar0, t, irreps, quad)

    monkeypatch.setattr(pairing, "char_gaussian_log", spy)
    char_log = pairing.char_log_table(TORUS, 1.0, band_irreps=band)
    first = char_log(0.5, [band[2]])
    assert calls == [(0.5, [(2,), (1,), (-1,)])]
    assert char_log(0.5, band[::-1]) == [char_log(0.5, [ir])[0] for ir in band[::-1]]
    assert char_log(0.5, [band[2]]) == first and len(calls) == 1
    char_log(0.5, [outside, band[0]])
    assert calls[1:] == [(0.5, [(4,)])]
    assert char_log(1.0, []) == [] and len(calls) == 2


def test_char_log_table_rules_follow_the_backend():
    # tori take the recentered Hermite rule of hermite_points nodes
    ir = groups.make_irrep(TORUS, (3,))
    want = pairing.char_gaussian_log(
        TORUS, 1.0, 0.7, [ir], pairing.char_gaussian_quadrature(TORUS, 1.0, 0.7, [ir], points=24))
    assert pairing.char_log_table(TORUS, 1.0, hermite_points=24)(0.7, [ir]) == want


@pytest.mark.parametrize("group", [SU2, SU3], ids=["su2", "su3"])
def test_char_log_integrand_finite_past_sinh_overflow(group, monkeypatch):
    # log eta is summed per root in log space: finite where eta itself
    # overflows (root values past about 710), equal to log(eta) below
    hbar0, t = 8.0, 6.0
    irrep = groups.make_irrep(group, (1,) if group is SU2 else (1, 1))
    direction = np.linspace(1.0, 0.3, group.rank)
    direction /= np.max(np.abs(direction @ group.positive_roots.T))
    H = np.outer(np.geomspace(0.1, 3000.0, 60) / (0.5 * t), direction)
    Y = np.zeros((len(H), group.dim))
    Y[:, list(group.cartan_indices)] = H
    got = pairing._char_log_integrand(group, hbar0, t, [irrep])(Y[None])[0]
    assert np.all(np.isfinite(got))
    monkeypatch.setattr(pairing, "log_sinhc", np.zeros_like)
    rest = pairing._char_log_integrand(group, hbar0, t, [irrep])(Y[None])[0]
    with np.errstate(over="ignore"):
        eta = halfform.eta_from_roots((0.5 * t * H) @ group.positive_roots.T)
    finite = np.isfinite(eta)
    assert 0 < finite.sum() < len(eta)
    np.testing.assert_allclose(got[finite], rest[finite] + np.log(eta[finite]), rtol=1e-14)


def test_char_gaussian_log_large_exponent():
    ir = groups.make_irrep(SU2, (5,))
    quad = pairing.char_gaussian_quadrature(SU2, 1.0, 6.0, [ir])
    [(logv, est)] = pairing.char_gaussian_log(SU2, 1.0, 6.0, [ir], quad)
    # absolute error on the log certifies relative error on a value the
    # size of e^{792}
    assert logv == pytest.approx(LOG_G_J52_T6, abs=1e-6)


def test_schur_reduction_direct_3d():
    # the matrix-element integral int R(e^{itY}) e^{-t|Y|^2/2 hbar} w(Y) dY
    # is a scalar multiple of the identity, scalar = character integral / d;
    # checked by direct tensor quadrature with no Weyl reduction
    hbar0, t = 0.5, 0.5
    m = 1
    quad = quadrature.hermite_quadrature(SU2, 28, scale=math.sqrt(hbar0 / t))

    def weight(Y):
        # batched: (N, 3) nodes -> (N,) values
        r2 = np.sum(Y * Y, axis=1)
        from bksverify import halfform
        return np.exp(-t * r2 / (2 * hbar0)) * (t / 2.0) ** 1.5 * halfform.eta(SU2, (t / 2.0) * Y)

    entries = {}
    for (i, j) in ((0, 0), (1, 1), (0, 1)):
        val, _ = quadrature.integrate_algebra(
            lambda Y, i=i, j=j: groups.wigner_matrix(
                m / 2.0, groups.group_exp(SU2, Y, factor=1j * t))[:, i, j] * weight(Y),
            quad)
        entries[(i, j)] = val
    assert abs(entries[(0, 1)]) <= 1e-8 * abs(entries[(0, 0)])
    assert entries[(1, 1)] == pytest.approx(entries[(0, 0)], rel=1e-8)
    ir = groups.make_irrep(SU2, (m,))
    char_quad = pairing.char_gaussian_quadrature(SU2, hbar0, t, [ir])
    char_val, _ = char_gaussian_integral(SU2, hbar0, t, ir, char_quad)
    assert entries[(0, 0)] == pytest.approx(char_val / ir.dim, rel=1e-6)


def test_quantum_pair_diagonal_norm():
    rng = np.random.default_rng(0)
    f = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    sec = pairing.QuantumSection(1.3, f, hbar0=1.0)
    val, est = pairing.quantum_pair(sec, sec)
    want = heat.a_s(SU2, 1.0, 1.3) * heat.l2_inner(f, f).real
    assert val.real == pytest.approx(want, rel=1e-9)
    assert abs(val.imag) <= 1e-12 * want


def test_quantum_pair_torus_unit_character():
    # k = 1 matrix element, s = 1, s' = 0.5: the pairing collapses to
    # a_{0.75} = sqrt(pi) on the unit-volume circle
    f = heat.matrix_element_function(TORUS, (1,), 0, 0)
    sec = pairing.QuantumSection(1.0, f, hbar0=1.0)
    secp = pairing.QuantumSection(0.5, f, hbar0=1.0)
    val, _ = pairing.quantum_pair(sec, secp)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_quantum_pair_orthogonal_functions():
    f = heat.matrix_element_function(SU2, (1,), 0, 0)
    fp = heat.matrix_element_function(SU2, (2,), 1, 1)
    sec = pairing.QuantumSection(0.8, f, hbar0=1.0)
    secp = pairing.QuantumSection(2.0, fp, hbar0=1.0)
    val, _ = pairing.quantum_pair(sec, secp)
    scale = heat.a_s(SU2, 1.0, 1.4)
    assert abs(val) <= 1e-10 * scale


def test_quantum_pair_rejects_mixed_groups():
    f = heat.matrix_element_function(SU2, (1,), 0, 0)
    g = heat.matrix_element_function(TORUS, (1,), 0, 0)
    with pytest.raises(ValueError):
        pairing.quantum_pair(pairing.QuantumSection(1.0, f), pairing.QuantumSection(1.0, g))


def test_bks_factor_torus_closed_value():
    # e^{-pi^2} at (hbar0, s, s', k) = (1, 1, 0.5, 1)
    ir = groups.make_irrep(TORUS, (1,))
    num = math.exp(pairing.bks_factor_log(TORUS, 1.0, 1.0, 0.5, ir)[0])
    assert num == pytest.approx(math.exp(-math.pi ** 2), rel=1e-9)
    assert pairing.bks_factor_closed(TORUS, 1.0, 1.0, 0.5, ir) == pytest.approx(
        math.exp(-math.pi ** 2), rel=1e-13)


def test_bks_factor_su2_two_backends():
    ir = groups.make_irrep(SU2, (1,))
    want = math.exp(-0.5 * (ir.casimir + SU2.rho_norm_sq))
    num_c = math.exp(pairing.bks_factor_log(SU2, 1.0, 2.0, 1.0, ir)[0])
    assert num_c == pytest.approx(want, rel=1e-8)
    assert num_c == pytest.approx(pairing.bks_factor_closed(SU2, 1.0, 2.0, 1.0, ir), rel=1e-8)


def test_bks_factor_at_equal_parameters():
    ir = groups.make_irrep(SU2, (2,))
    num = math.exp(pairing.bks_factor_log(SU2, 1.0, 1.0, 1.0, ir)[0])
    assert num == pytest.approx(1.0, rel=1e-10)
    assert pairing.bks_factor_closed(SU2, 1.0, 1.0, 1.0, ir) == 1.0
    assert pairing.bks_factor_closed(SU2, 1.0, 0.5, 2.0, ir) > 1.0  # s < s'


def test_bks_map_on_l2_datum_and_roundtrip():
    # on the L2 datum the block factor collapses to the block-independent
    # sqrt(a_{s'}/a_s): identity on a torus, e^{-(s-s') hbar0 |rho|^2 / 2}
    # in general
    rng = np.random.default_rng(1)
    f = heat.random_band_limited(TORUS, 25 * 4 * math.pi ** 2 + 1e-9, rng)
    secp = pairing.QuantumSection(0.5, f, hbar0=1.0)
    mapped = pairing.bks_map_apply(2.0, 0.5, secp)
    assert mapped.s == 2.0
    for label in f.labels():
        np.testing.assert_allclose(mapped.f.blocks[label], f.blocks[label], rtol=1e-14)

    g = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    sec_su2 = pairing.QuantumSection(0.5, g, hbar0=1.0)
    ratio = math.exp(-0.75 * SU2.rho_norm_sq)
    mapped_su2 = pairing.bks_map_apply(2.0, 0.5, sec_su2)
    for label in g.labels():
        np.testing.assert_allclose(mapped_su2.f.blocks[label], ratio * g.blocks[label],
                                   rtol=1e-12)
    back = pairing.bks_map_apply(0.5, 2.0, mapped_su2)
    for label in g.labels():
        np.testing.assert_allclose(back.f.blocks[label], g.blocks[label], rtol=1e-10)


def test_bks_map_preserves_pairing_value():
    # pairing against the mapped section at coincident parameter
    # reproduces the cross pairing
    rng = np.random.default_rng(8)
    f = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    fp = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    sec = pairing.QuantumSection(2.0, f, hbar0=1.0)
    secp = pairing.QuantumSection(0.5, fp, hbar0=1.0)
    cross, _ = pairing.quantum_pair(sec, secp)
    coincident, _ = pairing.quantum_pair(sec, pairing.bks_map_apply(2.0, 0.5, secp))
    assert coincident == pytest.approx(cross, rel=1e-12)


def test_bks_map_composition_law():
    rng = np.random.default_rng(2)
    f = heat.random_band_limited(SU2, groups.casimir(SU2, (3,)) + 1e-9, rng)
    sec = pairing.QuantumSection(2.5, f, hbar0=1.0)
    one_hop = pairing.bks_map_apply(0.25, 2.5, sec)
    two_hop = pairing.bks_map_apply(0.25, 1.0, pairing.bks_map_apply(1.0, 2.5, sec))
    for label in f.labels():
        np.testing.assert_allclose(two_hop.f.blocks[label], one_hop.f.blocks[label], rtol=1e-12)


def test_verify_unitarity_su2_grid():
    for m in (0, 1, 2, 3):
        ir = groups.make_irrep(SU2, (m,))
        rep = pairing.verify_unitarity(SU2, 1.0, 1.0, 0.3, ir)
        assert rep.passed and rep.residual <= 1e-6
    rep0 = pairing.verify_unitarity(TORUS, 1.0, 1.0, 0.5, groups.make_irrep(TORUS, (0,)))
    assert rep0.residual <= 1e-12


def test_verify_unitarity_vertical_endpoint():
    # s' = 0 uses the rescaled inner product on the datum
    for m in (0, 1, 2):
        rep = pairing.verify_unitarity(SU2, 1.0, 1.0, 0.0, groups.make_irrep(SU2, (m,)))
        assert rep.passed, (m, rep.residual)
        assert rep.residual <= 1e-6


def test_verify_unitarity_su3_cartan_table():
    char_log = pairing.char_log_table(SU3, 1.0)
    rep = pairing.verify_unitarity(SU3, 1.0, 1.0, 2.0, groups.make_irrep(SU3, (1, 0)),
                                   char_log=char_log, tolerance=1e-3)
    assert rep.passed, rep.residual
    assert rep.residual <= 5 * rep.error_estimate


def test_verify_factorization():
    rep = pairing.verify_factorization(SU2, 1.0, 1.5, 0.5, groups.make_irrep(SU2, (2,)))
    assert rep.passed and rep.residual <= 1e-14
    rep_t = pairing.verify_factorization(TORUS, 1.0, 2.0, 0.5, groups.make_irrep(TORUS, (3,)))
    assert rep_t.passed
    rep_same = pairing.verify_factorization(SU2, 1.0, 1.0, 1.0, groups.make_irrep(SU2, (1,)))
    assert rep_same.lhs == pytest.approx(1.0, abs=1e-15)


def test_vertical_pair_values():
    f = heat.matrix_element_function(TORUS, (2,), 0, 0)
    val, _ = pairing.vertical_pair(1.0, 1.0, f, f)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    one = heat.matrix_element_function(SU2, (0,), 0, 0)
    val2, _ = pairing.vertical_pair(1.0, 0.8, one, one)
    assert val2 == pytest.approx(heat.a_s(SU2, 1.0, 0.4), rel=1e-8)
    fp = heat.matrix_element_function(TORUS, (3,), 0, 0)
    val3, _ = pairing.vertical_pair(1.0, 1.0, f, fp)
    assert abs(val3) <= 1e-12


def test_vertical_pair_matches_extrapolated_quantum_pair():
    rng = np.random.default_rng(3)
    f = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    fp = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    s = 1.0
    target, _ = pairing.vertical_pair(1.0, s, f, fp)
    sec = pairing.QuantumSection(s, f, hbar0=1.0)
    vals = []
    for sp in (1e-2, 1e-3):
        v, _ = pairing.quantum_pair(sec, pairing.QuantumSection(sp, fp, hbar0=1.0))
        vals.append(v)
    v1, v3 = vals
    extrap = (1e-2 * v3 - 1e-3 * v1) / (1e-2 - 1e-3)
    est = abs(extrap - v3)
    assert abs(extrap - target) <= max(3 * est, 1e-10 * abs(target))


def test_vertical_inner():
    f = heat.matrix_element_function(TORUS2, (1, 0), 0, 0)
    assert pairing.vertical_inner(1.0, f, f) == pytest.approx(math.pi * 1.0, rel=1e-13)
    one = heat.matrix_element_function(SU2, (0,), 0, 0)
    assert pairing.vertical_inner(0.5, one, one) == pytest.approx((math.pi * 0.5) ** 1.5, rel=1e-13)


def test_continuity_check():
    rng = np.random.default_rng(4)
    f = heat.random_band_limited(TORUS, 25 * 4 * math.pi ** 2 + 1e-9, rng)
    rep = pairing.continuity_check(TORUS, 1.0, f, (4e-3, 2e-3, 1e-3))
    for r in rep.params["ratios"]:
        assert r == pytest.approx(1.0, abs=1e-10)
    f2 = heat.random_band_limited(SU2, groups.casimir(SU2, (2,)) + 1e-9, rng)
    rep2 = pairing.continuity_check(SU2, 1.0, f2, (4e-3, 2e-3, 1e-3))
    devs = [abs(r - 1.0) for r in rep2.params["ratios"]]
    # linear rate: e^{|rho|^2 hbar0 s} - 1 and halving within 10%
    assert devs[0] == pytest.approx(SU2.rho_norm_sq * 4e-3, rel=0.05)
    for a, b in zip(devs, devs[1:]):
        assert a / b == pytest.approx(2.0, rel=0.1)


def test_delta_identity():
    rep0 = pairing.verify_delta_identity(TORUS, 1.0, 1.0, groups.make_irrep(TORUS, (0,)),
                                         tolerance=1e-8)
    assert rep0.passed and rep0.residual <= 1e-10
    rep1 = pairing.verify_delta_identity(TORUS, 1.0, 1.0, groups.make_irrep(TORUS, (1,)),
                                         tolerance=1e-8)
    assert rep1.passed
    rep2 = pairing.verify_delta_identity(SU2, 1.0, 1.0, groups.make_irrep(SU2, (1,)))
    assert rep2.passed and rep2.residual <= 1e-3


@pytest.mark.parametrize("hbar0", [0.25, 1.0, 3.0])
def test_delta_identity_su3(hbar0):
    # delta-one is G_R(2) through the character engine, so it runs on
    # SU(3) too, far inside the 1e-3 bar of the suite
    for label in ((0, 0), (1, 0), (1, 1)):
        rep = pairing.verify_delta_identity(SU3, hbar0, 1.0, groups.make_irrep(SU3, label))
        assert rep.passed and rep.residual <= 1e-10, label


def test_delta_two_torus_t_independence():
    ir = groups.make_irrep(TORUS, (1,))
    rep = pairing.verify_delta_two(TORUS, 1.0, 1.0, 0.5, 0.3, ir,
                                   tolerance=1e-8, t_alt=0.55, points=48)
    assert rep.passed
    assert rep.params["t_dependence"] <= 1e-8
    with pytest.raises(ValueError):
        pairing.verify_delta_two(SU3, 1.0, 1.0, 0.5, 0.3, groups.make_irrep(SU3, (1, 0)))


def test_delta_two_deterministic_given_seed():
    ir = groups.make_irrep(TORUS, (1,))
    reps = [pairing.verify_delta_two(TORUS, 1.0, 1.0, 0.5, 0.3, ir,
                                     tolerance=1e-8, seed=9, t_alt=0.55, points=48)
            for _ in range(2)]
    assert reps[0].lhs == reps[1].lhs
    assert reps[0].residual == reps[1].residual


def _brute_delta_two_torus(group, hbar0, s, s_prime, t, k, theta2, gh_points):
    # node by node, with the kernel as a fused-exponent theta sum over
    # full (theta_g, theta_1) grids of complex phases, on Hermite nodes
    # recentered at the surviving Gaussian's peak k sigma / sqrt(lam)
    lam = group.scale
    hbar, hbar_p = s * hbar0, s_prime * hbar0
    sigma = math.sqrt(0.5 * (hbar + hbar_p))
    u, ws = np.polynomial.hermite.hermgauss(gh_points)
    x0 = k * sigma / math.sqrt(lam)
    xs, ws = u + x0, ws * np.exp(-2.0 * x0 * u - x0 * x0)
    beta_max = sigma * float(np.max(np.abs(xs))) / math.sqrt(lam) * (1.0 + abs(t))
    kmax = max(pairing._torus_theta_kmax(lam, hbar, beta_max),
               pairing._torus_theta_kmax(lam, hbar_p, beta_max), abs(k) + 2)
    m_grid = max(64, 2 * kmax + 2)
    theta = 2.0 * math.pi * np.arange(m_grid) / m_grid
    ks = np.arange(-kmax, kmax + 1, dtype=float)

    def theta_sum(h, phases):
        return np.sum(np.exp(1j * phases[..., None] * ks - h * ks**2 / (2.0 * lam)), axis=-1)

    total = 0.0
    for x, w in zip(xs, ws):
        beta = sigma * x / math.sqrt(lam)
        ph_a = theta[:, None] - theta[None, :] + 1j * (1.0 + t) * beta
        inner = theta_sum(hbar, ph_a).conj() @ np.exp(1j * k * theta) / m_grid
        ker_b = theta_sum(hbar_p, theta - theta2 + 1j * (1.0 - t) * beta)
        total += w * sigma * np.mean(inner * ker_b)
    return total / math.sqrt(math.pi * hbar0 * 0.5 * (s + s_prime))


@pytest.mark.parametrize("hbar0", [0.25, 1.0])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("points", [8, 48])
def test_separable_torus_kernel_matches_brute_force(hbar0, k, points):
    val, _ = pairing._delta_two_torus(TORUS, hbar0, 1.0, 0.5, 0.3,
                                      groups.make_irrep(TORUS, (k,)), np.array([2.1]), points)
    ref = _brute_delta_two_torus(TORUS, hbar0, 1.0, 0.5, 0.3, k, 2.1, points)
    assert val.shape == (1, 1)
    assert abs(val[0, 0] - ref) <= 1e-12 * abs(ref)


# ids: the label at hbar0 = 0.25, else hbar0-label; at hbar0 = 3 and at
# label 2 the surviving Gaussian lies past unshifted Hermite nodes; at
# hbar0 = 0.05 the kept band needs an angle grid finer than 64 points
@pytest.mark.parametrize("hbar0, label", [
    pytest.param(0.25, 0, id="0"),
    pytest.param(0.25, 1, id="1"),
    pytest.param(0.05, 0, id="0.05-0"),
    pytest.param(0.05, 1, id="0.05-1"),
    pytest.param(3.0, 0, id="3-0"),
    pytest.param(3.0, 1, id="3-1"),
    pytest.param(1.0, 2, id="1-2"),
])
def test_delta_two_torus_small_hbar0(hbar0, label):
    rep = pairing.verify_delta_two(TORUS, hbar0, 1.0, 0.5, 0.3,
                                   groups.make_irrep(TORUS, (label,)),
                                   tolerance=1e-8, t_alt=0.55, points=48)
    assert rep.passed and rep.residual <= 1e-8
    assert rep.params["t_dependence"] <= 1e-8


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("label", [0, 1])
def test_delta_two_torus_higher_rank(rank, label):
    # the kernel integrates the first circle only; the others give 1
    group = groups.group_spec("torus", n=rank)
    irrep = groups.make_irrep(group, (label,) + (0,) * (rank - 1))
    rep = pairing.verify_delta_two(group, 1.0, 1.0, 0.5, 0.3, irrep,
                                   tolerance=1e-8, t_alt=0.55, points=48)
    assert rep.passed and rep.residual <= 1e-8
    assert rep.params["t_dependence"] <= 1e-8


def test_report_pass_flag_matches_tolerance():
    rep = pairing.verify_factorization(SU2, 1.0, 1.5, 0.5, groups.make_irrep(SU2, (1,)))
    assert rep.passed == (rep.residual <= rep.tolerance)
    tight = pairing.verify_unitarity(SU2, 1.0, 1.0, 0.3, groups.make_irrep(SU2, (1,)),
                                     tolerance=1e-18)
    assert not tight.passed


def test_prequantum_map_contrast():
    # Gaussian amplitude, s' = 4 -> s = 1: the prequantum map changes the
    # norm while parallel transport preserves it
    amp = lambda Y: np.exp(-np.sum(Y * Y, axis=1) / 2.0)
    secp = pairing.PrequantumSection(SU2, 4.0, amp)
    quad = quadrature.hermite_quadrature(SU2, 24, scale=1.0)
    n0, _ = pairing.preq_norm_sq(secp, quad)
    mapped = pairing.preq_map_apply(1.0, 4.0, secp)
    assert mapped.s == 1.0
    n1, _ = pairing.preq_norm_sq(mapped, quad)
    assert abs(math.sqrt(n1 / n0) - 1.0) > 1e-3
    moved = pairing.preq_parallel_transport(1.0, 4.0, secp)
    n2, _ = pairing.preq_norm_sq(moved, quad)
    assert math.sqrt(n2 / n0) == pytest.approx(1.0, abs=1e-12)


def test_prequantum_torus_constant_multiplier():
    # abelian phi is constant in Y: multiplier sqrt((s+s')/(2 sqrt(s s')))
    amp = lambda Y: np.exp(-np.sum(Y * Y, axis=1) / 2.0)
    secp = pairing.PrequantumSection(TORUS, 4.0, amp)
    mapped = pairing.preq_map_apply(1.0, 4.0, secp)
    Y = np.array([[0.4], [-1.1], [2.0]])
    np.testing.assert_allclose(mapped.amplitude(Y), math.sqrt(1.25) * amp(Y), rtol=1e-12)

