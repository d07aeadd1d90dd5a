"""Acceptance criteria, one test per criterion.

Each test is a self-contained statement of one verifiable identity with
its tolerance; `pytest -v tests/test_acceptance.py` prints one pass or
fail line per criterion.  The expensive pieces are the SU(2) delta
quadratures (criterion 9) and the full default suite (criterion 12).
"""

import json
import math
import os

import numpy as np
import pytest

from bksverify import config, groups, halfform, heat, pairing, quadrature, suite

TORUS = groups.group_spec("torus", n=1)
SU2 = groups.group_spec("su2")
SU3 = groups.group_spec("su3")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

S_GRID = (0.25, 1.0, 2.0, 3.0)


def rand_band(group, rng):
    band = suite.default_band_limit(group)
    return heat.random_band_limited(group, band, rng)


def char_gaussian_integral(group, hbar0, t, irrep, quad):
    # value-space G_R(t) with its error estimate, from the log-space entry
    [(logv, logerr)] = pairing.char_gaussian_log(group, hbar0, t, [irrep], quad)
    value = math.exp(logv)
    return value, value * logerr


@pytest.fixture(scope="module")
def unitarity_grid():
    reports = []
    for m in range(6):
        ir = groups.make_irrep(SU2, (m,))
        for s in (0.25, 1.0, 3.0):
            for sp in (0.0, 0.5, 3.0):
                reports.append(pairing.verify_unitarity(SU2, 1.0, s, sp, ir))
    return reports


def test_criterion_01_wedge_identity():
    rng = np.random.default_rng(101)
    for group in (SU2, SU3):
        worst = 0.0
        for _ in range(100):
            Y = rng.standard_normal(group.dim)
            Y *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(Y), 1e-12)
            s, sp = rng.uniform(0.1, 4.0, size=2)
            det = halfform.wedge_density_det(group, s, sp, Y)
            prod = halfform.wedge_density(group, s, sp, Y)
            worst = max(worst, abs(det - prod) / abs(prod))
        assert worst <= 1e-8, (group.kind, worst)


def test_criterion_02_phi_flatness():
    rng = np.random.default_rng(102)
    for group in (TORUS, SU2, SU3):
        worst = 0.0
        for _ in range(100):
            Y = 0.5 * rng.standard_normal(group.dim)
            s = rng.uniform(0.2, 2.0)
            worst = max(worst, abs(halfform.phi_flatness_residual(group, s, Y, h=1e-4)))
        assert worst <= 1e-6, (group.kind, worst)


def test_criterion_03_character_gaussian_identity():
    worst = 0.0
    for m in range(6):
        ir = groups.make_irrep(SU2, (m,))
        want = ir.dim * math.pi ** 1.5 * math.exp(
            (ir.casimir + SU2.rho_norm_sq) / 2.0)
        for t in (0.5, 1.0, 2.0):
            want_t = ir.dim * math.pi ** 1.5 * math.exp(
                t * (ir.casimir + SU2.rho_norm_sq) / 2.0)
            quad = pairing.char_gaussian_quadrature(SU2, 1.0, t, [ir])
            val, _ = char_gaussian_integral(SU2, 1.0, t, ir, quad)
            worst = max(worst, abs(val - want_t) / want_t)
    assert worst <= 1e-6, worst

    # the default Cartan table of a run; the 5 x estimate line guards
    # the rule's error estimate itself
    char_log = pairing.char_log_table(SU3, 1.0)
    for lab in ((1, 0), (1, 1)):
        ir = groups.make_irrep(SU3, lab)
        [(logv, logerr)] = char_log(1.0, [ir])
        val, est = math.exp(logv), math.exp(logv) * logerr
        want = ir.dim * math.pi ** 4 * math.exp(
            (ir.casimir + SU3.rho_norm_sq) / 2.0)
        rel = abs(val - want) / want
        assert rel <= 1e-4, (lab, rel)
        assert abs(val - want) <= 5 * est, (lab, rel, est / want)


def test_criterion_04_pairing_theorem():
    for group in (TORUS, SU2):
        rng = np.random.default_rng(104)
        count = 0
        worst = 0.0
        for s in S_GRID:
            for sp in S_GRID:
                for _ in range(4):
                    f, fp = rand_band(group, rng), rand_band(group, rng)
                    sec = pairing.QuantumSection(s, f, hbar0=1.0)
                    secp = pairing.QuantumSection(sp, fp, hbar0=1.0)
                    val, _ = pairing.quantum_pair(sec, secp)
                    want = heat.a_s(group, 1.0, (s + sp) / 2.0) * heat.l2_inner(f, fp)
                    worst = max(worst, abs(val - want) / abs(want))
                    count += 1
        assert count >= 50
        assert worst <= 1e-6, (group.kind, worst)

        # disjoint Peter-Weyl support maps to zero
        one = (1,) if group.kind == "su2" else (1,)
        two = (2,) if group.kind == "su2" else (2,)
        f = heat.matrix_element_function(group, one, 0, 0)
        fp = heat.matrix_element_function(group, two, 0, 0)
        sec = pairing.QuantumSection(1.0, f, hbar0=1.0)
        secp = pairing.QuantumSection(2.0, fp, hbar0=1.0)
        val, _ = pairing.quantum_pair(sec, secp)
        scale = heat.a_s(group, 1.0, 1.5) * math.sqrt(
            (heat.l2_inner(f, f) * heat.l2_inner(fp, fp)).real)
        assert abs(val) <= 1e-8 * scale, (group.kind, abs(val) / scale)


def test_criterion_05_unitarity(unitarity_grid):
    assert len(unitarity_grid) == 54
    worst = max(rep.residual for rep in unitarity_grid)
    assert all(rep.passed for rep in unitarity_grid), worst
    assert worst <= 1e-6, worst


def test_criterion_06_factorization_and_a_identity():
    for group in (TORUS, SU2, SU3):
        lab = (2,) if group.kind != "su3" else (1, 1)
        ir = groups.make_irrep(group, lab)
        for s, sp in ((0.25, 3.0), (1.0, 0.5), (2.0, 2.0)):
            rep = pairing.verify_factorization(group, 1.0, s, sp, ir)
            assert rep.passed and rep.residual <= 1e-14, (group.kind, s, sp)
            mid = heat.a_s(group, 1.0, (s + sp) / 2.0)
            geo = math.sqrt(heat.a_s(group, 1.0, s) * heat.a_s(group, 1.0, sp))
            assert mid == pytest.approx(geo, rel=1e-14)

    rng = np.random.default_rng(106)
    f = rand_band(SU2, rng)
    sec = pairing.QuantumSection(2.5, f, hbar0=1.0)
    one_hop = pairing.bks_map_apply(0.25, 2.5, sec)
    two_hop = pairing.bks_map_apply(0.25, 1.0, pairing.bks_map_apply(1.0, 2.5, sec))
    for label in f.labels():
        np.testing.assert_allclose(two_hop.f.blocks[label], one_hop.f.blocks[label],
                                   rtol=1e-14)


def test_criterion_07_vertical_limit():
    for group in (TORUS, SU2, SU3):
        rng = np.random.default_rng(107)
        f, fp = rand_band(group, rng), rand_band(group, rng)
        s = 1.0
        target, _ = pairing.vertical_pair(1.0, s, f, fp)
        want = heat.a_s(group, 1.0, s / 2.0) * heat.l2_inner(f, fp)
        assert abs(target - want) / abs(want) <= 1e-6, group.kind

        sec = pairing.QuantumSection(s, f, hbar0=1.0)
        vals = []
        for sp in (1e-2, 1e-3):
            v, _ = pairing.quantum_pair(sec, pairing.QuantumSection(sp, fp, hbar0=1.0))
            vals.append(v)
        v1, v3 = vals
        extrap = (1e-2 * v3 - 1e-3 * v1) / (1e-2 - 1e-3)
        est = abs(extrap - v3)
        assert abs(extrap - target) <= max(3 * est, 1e-10 * abs(target)), group.kind


def test_criterion_08_continuity_at_zero():
    rng = np.random.default_rng(108)
    f = rand_band(SU2, rng)
    rep = pairing.continuity_check(SU2, 1.0, f, (4e-3, 2e-3, 1e-3))
    assert rep.passed
    devs = [abs(r - 1.0) for r in rep.params["ratios"]]
    for a, b in zip(devs, devs[1:]):
        assert a / b == pytest.approx(2.0, rel=0.1)

    ft = rand_band(TORUS, rng)
    rep_t = pairing.continuity_check(TORUS, 1.0, ft, (4e-3, 2e-3, 1e-3))
    for r in rep_t.params["ratios"]:
        assert abs(r - 1.0) <= 1e-10


def test_criterion_09_delta_identities():
    for k in range(3):
        rep = pairing.verify_delta_identity(TORUS, 1.0, 1.0, groups.make_irrep(TORUS, (k,)),
                                            tolerance=1e-8)
        assert rep.passed and rep.residual <= 1e-8, (k, rep.residual)
    for k in range(2):
        rep = pairing.verify_delta_two(TORUS, 1.0, 1.0, 0.5, 0.3,
                                       groups.make_irrep(TORUS, (k,)),
                                       tolerance=1e-8, t_alt=0.55, points=48)
        assert rep.passed and rep.residual <= 1e-8, (k, rep.residual)
        assert rep.params["t_dependence"] <= 1e-8

    for m in range(3):  # j <= 1
        rep = pairing.verify_delta_identity(SU2, 0.5, 1.0, groups.make_irrep(SU2, (m,)),
                                            tolerance=1e-3)
        assert rep.passed and rep.residual <= 1e-3, (m, rep.residual)
        rep2 = pairing.verify_delta_two(SU2, 0.5, 1.0, 0.5, 0.3,
                                        groups.make_irrep(SU2, (m,)),
                                        tolerance=1e-3, t_alt=0.55, points=32)
        assert rep2.passed and rep2.residual <= 1e-3, (m, rep2.residual)
        assert rep2.params["t_dependence"] <= 1e-3


def test_criterion_10_prequantum_contrast(unitarity_grid):
    amp = lambda Y: np.exp(-np.sum(Y * Y, axis=1) / 2.0)
    secp = pairing.PrequantumSection(SU2, 4.0, amp)
    # the rule the suite's prequantum job runs; both norms are Ad-invariant
    quad = quadrature.cartan_quadrature(SU2, 9.0, points_per_panel=14, panels=10)
    n0, _ = pairing.preq_norm_sq(secp, quad)
    n1, _ = pairing.preq_norm_sq(pairing.preq_map_apply(1.0, 4.0, secp), quad)
    ratio = math.sqrt(n1 / n0)
    assert abs(ratio - 1.0) > 1e-3, ratio
    assert ratio ** 2 == pytest.approx(1.254109, rel=1e-5)
    # while the quantum map stays unitary on the same parameter range
    assert all(rep.residual <= 1e-6 for rep in unitarity_grid)


def test_criterion_11_cst_unitarity():
    rng = np.random.default_rng(111)
    for group, s in ((SU2, 0.35), (TORUS, 0.35), (SU3, 1.0)):
        f, fp = rand_band(group, rng), rand_band(group, rng)
        want = heat.l2_inner(f, fp)
        F = heat.cst_forward(s * 1.0, f)
        Fp = heat.cst_forward(s * 1.0, fp)
        got = heat.hl2_inner(group, 1.0, s, F, Fp)
        assert abs(got - want) / abs(want) <= 1e-10, group.kind

    hbar0, s = 0.1, 1.0
    F = heat.cst_forward(hbar0 * s, heat.matrix_element_function(SU2, (1,), 0, 1))
    want = heat.hl2_inner(SU2, hbar0, s, F, F)
    got, _ = heat.hl2_inner_quadrature(SU2, hbar0, s, F, F, points=28)
    assert abs(got - want) / abs(want) <= 1e-4

    # the k = 2 matrix element tilts the measure by 2 pi k hbar in the
    # fiber, so the node window is sized for small hbar
    F2 = heat.cst_forward(hbar0 * s, heat.matrix_element_function(TORUS, (2,), 0, 0))
    want2 = heat.hl2_inner(TORUS, hbar0, s, F2, F2)
    got2, _ = heat.hl2_inner_quadrature(TORUS, hbar0, s, F2, F2, points=64)
    assert abs(got2 - want2) / abs(want2) <= 1e-4


def test_criterion_12_cli_determinism_and_runtime():
    cfg = config.load_config(os.path.join(GOLDEN_DIR, "torus.cfg"))
    text = suite.render_json(suite.run_suite(cfg))
    with open(os.path.join(GOLDEN_DIR, "reports.json"), encoding="utf-8") as fh:
        golden = fh.read()
    assert text == golden
    assert json.loads(text)["summary"]["failed"] == 0

    full = suite.run_suite(config.default_config())
    assert full.summary["failed"] == 0 and full.summary["errors"] == 0
    assert full.wall_clock < 600.0, full.wall_clock
