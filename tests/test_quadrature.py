"""Integration rules: Weyl-reduced Cartan rules and Gauss-Hermite tensor
rules over the algebra, and the test-side Haar rules over the group."""

import math

import numpy as np
import pytest

import oracles
from bksverify import groups, halfform, quadrature

TORUS = groups.group_spec("torus", n=1)
SU2 = groups.group_spec("su2")
SU3 = groups.group_spec("su3")


def test_weyl_constant_su2_polar_closed_form():
    # radial reduction on R^3 gives c_K = 2 pi / a^2 where a is the root
    # value on a unit Cartan direction
    H = np.zeros(3)
    H[SU2.cartan_indices[0]] = 1.0
    a = halfform.root_values(SU2, H)[0]
    assert quadrature.weyl_constant(SU2) == pytest.approx(2 * math.pi / a ** 2, rel=1e-12)


def test_weyl_constant_rejects_torus():
    with pytest.raises(ValueError):
        quadrature.weyl_constant(TORUS)


def gauss(Y):
    # batched integrand: (N, dim) nodes -> (N,) values
    return np.exp(-np.sum(Y * Y, axis=1))


def test_cartan_gaussian_calibration():
    # defining equation of the constant: the reduced rule must reproduce the
    # full Gaussian mass pi^{dim/2}
    for g in (SU2, SU3):
        quad = quadrature.cartan_quadrature(g, 6.0, points_per_panel=14, panels=10)
        val, est = quadrature.integrate_algebra(gauss, quad)
        assert val == pytest.approx(math.pi ** (g.dim / 2), rel=1e-10)
        assert est < 1e-8


def test_cartan_matches_hermite_on_invariant_integrand():
    # eta^2 weighted Gaussian, both backends; the 0.3 keeps the growth of
    # eta well inside the Gaussian so neither rule is shift-starved
    quad_c = quadrature.cartan_quadrature(SU2, 6.0, points_per_panel=14, panels=10)
    quad_h = quadrature.hermite_quadrature(SU2, 40)
    f = lambda Y: gauss(Y) * halfform.eta(SU2, 0.3 * Y) ** 2
    vc, ec = quadrature.integrate_algebra(f, quad_c)
    vh, eh = quadrature.integrate_algebra(f, quad_h)
    # companion estimates can be optimistic; 1e-9 relative is the contract
    assert abs(vc - vh) <= max(1e-9 * abs(vc), ec + eh)


def test_hermite_polynomial_exactness():
    # p points integrate x^k e^{-x^2} exactly through k = 2p - 2
    quad = quadrature.hermite_quadrature(TORUS, 8)
    for k, want in ((0, math.sqrt(math.pi)), (2, math.sqrt(math.pi) / 2),
                    (4, 3 * math.sqrt(math.pi) / 4), (14, math.sqrt(math.pi) * 135135 / 2 ** 7)):
        val, _ = quadrature.integrate_algebra(
            lambda Y, k=k: Y[:, 0] ** k * gauss(Y), quad)
        assert val == pytest.approx(want, rel=1e-12)


def test_hermite_tensor_moment_su2():
    # int Y1^2 Y2^4 e^{-|Y|^2} over R^3 = (sqrt(pi)/2)(3 sqrt(pi)/4) sqrt(pi)
    quad = quadrature.hermite_quadrature(SU2, 10)
    val, _ = quadrature.integrate_algebra(
        lambda Y: Y[:, 0] ** 2 * Y[:, 1] ** 4 * gauss(Y), quad)
    want = (math.sqrt(math.pi) / 2) * (3 * math.sqrt(math.pi) / 4) * math.sqrt(math.pi)
    assert val == pytest.approx(want, rel=1e-12)


def test_hermite_odd_integrand_vanishes():
    quad = quadrature.hermite_quadrature(SU2, 12)
    val, _ = quadrature.integrate_algebra(
        lambda Y: (Y[:, 0] ** 3 + Y[:, 2]) * gauss(Y), quad)
    assert abs(val) < 1e-12


def test_spherical_radial_moments_exact_at_the_sphere_degree():
    # Y1^2 Y2^4 e^{-|Y|^2} = r^6 e^{-r^2} times a degree-6 polynomial in the
    # unit vector: exact at degree 6, not at 5 (the phi rule aliases
    # cos(6 phi)); the Gaussian mass and odd integrands hold at degree 0
    want = (math.sqrt(math.pi) / 2) * (3 * math.sqrt(math.pi) / 4) * math.sqrt(math.pi)
    moment = lambda Y: Y[:, 0] ** 2 * Y[:, 1] ** 4 * gauss(Y)
    val, est = quadrature.integrate_algebra(moment, quadrature.spherical_radial(SU2, 8, 1.0, 6))
    assert val == pytest.approx(want, rel=1e-13) and est < 1e-13 * want
    low, _ = quadrature.integrate_algebra(moment, quadrature.spherical_radial(SU2, 8, 1.0, 5))
    assert abs(low - want) > 1e-2 * want
    mass = quadrature.spherical_radial(SU2, 8, 0.5, 0)
    val, _ = quadrature.integrate_algebra(lambda Y: gauss(2.0 * Y), mass)
    assert val == pytest.approx(math.pi ** 1.5 / 8, rel=1e-13)
    val, _ = quadrature.integrate_algebra(
        lambda Y: (Y[:, 0] ** 3 + Y[:, 2]) * gauss(Y), quadrature.spherical_radial(SU2, 8, 1.0, 3))
    assert abs(val) < 1e-13


def test_spherical_radial_sizes_and_companion():
    # points radial nodes on (0, inf) times (degree // 2 + 1)(degree + 1)
    # directions; the companion shortens the radial rule only
    quad = quadrature.spherical_radial(SU2, 16, 1.0, 4)
    assert quad.backend == "spherical-radial"
    assert quad.nodes.shape == (16 * 15, 3) and quad.coarse_nodes.shape == (12 * 15, 3)
    r = np.linalg.norm(quad.nodes, axis=1)
    assert r.min() > 0.0 and np.all(quad.weights > 0.0)
    assert np.allclose(r.reshape(16, 15), r.reshape(16, 15)[:, :1])
    assert quadrature.spherical_radial(SU2, 4, 1.0, 0).coarse_nodes.shape == (4, 3)
    with pytest.raises(ValueError, match="su\\(2\\) only"):
        quadrature.spherical_radial(TORUS, 8, 1.0, 2)


def test_hermite_point_cap():
    with pytest.raises(ValueError):
        quadrature.hermite_quadrature(TORUS, 400)


def test_hermite_recentering():
    # shifted Gaussian: int e^{-(y - 1.3)^2} dy with a recentered rule
    quad = quadrature.hermite_quadrature(TORUS, 24, scale=1.0, center=np.array([1.3]))
    val, _ = quadrature.integrate_algebra(
        lambda Y: np.exp(-(Y[:, 0] - 1.3) ** 2), quad)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_cartan_determinism_bit_identical():
    f = lambda Y: gauss(Y) * halfform.eta(SU2, Y) ** 2
    vals = set()
    for _ in range(3):
        quad = quadrature.cartan_quadrature(SU2, 6.0, points_per_panel=14, panels=10)
        v, _ = quadrature.integrate_algebra(f, quad)
        vals.add(v)
    assert len(vals) == 1


def test_cartan_convergence_with_panels():
    # refining the rule should converge to a fixed value
    f = lambda Y: gauss(Y) * halfform.eta(SU2, Y) ** 2
    quad_fine = quadrature.cartan_quadrature(SU2, 6.0, points_per_panel=14, panels=12)
    ref, _ = quadrature.integrate_algebra(f, quad_fine)
    errs = []
    for panels in (2, 4, 6):
        quad = quadrature.cartan_quadrature(SU2, 6.0, points_per_panel=6, panels=panels)
        v, _ = quadrature.integrate_algebra(f, quad)
        errs.append(abs(v - ref))
    assert errs[2] < errs[0]


def test_group_quadrature_haar_mass():
    # batched group integrands: a stack of N elements in, (N,) values out
    one = lambda g: np.ones(len(g))
    val = oracles.integrate_group(one, oracles.torus_rule(TORUS, 32))
    assert val == pytest.approx(1.0, rel=1e-14)
    val = oracles.integrate_group(one, oracles.euler_rule(12))
    assert val == pytest.approx(1.0, rel=1e-12)


def test_torus_trapezoid_exact_below_resolution():
    # e^{ik theta} integrates to 0 exactly for 0 < |k| < resolution
    rule = oracles.torus_rule(TORUS, 16)
    for k in (1, 3, 7):
        val = oracles.integrate_group(
            lambda g, k=k: groups.character_element(TORUS, groups.make_irrep(TORUS, (k,)), g), rule)
        assert abs(val) < 1e-14


def test_matrix_element_integral_vanishes():
    val = oracles.integrate_group(lambda g: groups.wigner_matrix(1.0, g)[:, 0, 1],
                                  oracles.euler_rule(16))
    assert abs(val) < 1e-10


def test_character_orthonormality_su2():
    rule = oracles.euler_rule(16)
    for m in (1, 2, 3):
        ir = groups.make_irrep(SU2, (m,))
        val = oracles.integrate_group(
            lambda g, ir=ir: abs(groups.character_element(SU2, ir, g)) ** 2, rule)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_integrate_algebra_rejects_nonfinite():
    quad = quadrature.hermite_quadrature(TORUS, 8)
    with pytest.raises(ValueError):
        quadrature.integrate_algebra(lambda Y: np.full(len(Y), np.nan), quad)


@pytest.mark.parametrize("bad", [
    lambda Y: 1.0,                       # a scalar for the whole batch
    lambda Y: np.ones((len(Y), 1)),      # a column, not a vector
    lambda Y: np.ones(len(Y) + 1),       # one value too many
    lambda Y: np.ones(Y.shape),          # per coordinate, not per node
])
def test_integrate_algebra_rejects_wrong_shape(bad):
    for quad in (quadrature.hermite_quadrature(SU2, 6),
                 quadrature.cartan_quadrature(SU2, 6.0, points_per_panel=4, panels=2)):
        with pytest.raises(ValueError, match="shape"):
            quadrature.integrate_algebra(bad, quad)
    with pytest.raises(ValueError, match="shape"):
        quadrature.integrate_algebra_log(bad, quadrature.hermite_quadrature(SU2, 6))


@pytest.mark.parametrize("build", [
    lambda: quadrature.cartan_quadrature(SU2, 6.0, points_per_panel=8, panels=2),
    lambda: quadrature.cartan_quadrature(SU3, 6.0, points_per_panel=8, panels=2),
    lambda: quadrature.hermite_quadrature(TORUS, 12),
    lambda: quadrature.hermite_quadrature(SU2, 8, scale=0.5, center=np.ones(3)),
    lambda: quadrature.spherical_radial(SU2, 8, 1.0, 2),
], ids=["cartan-su2", "cartan-su3", "hermite-torus", "hermite-su2", "spherical-radial"])
def test_every_rule_holds_nodes_and_a_smaller_companion(build):
    # every rule the builders return is integrable: algebra-vector nodes
    # with positive weights, and a companion of strictly fewer nodes
    quad = build()
    for nodes, weights in ((quad.nodes, quad.weights),
                           (quad.coarse_nodes, quad.coarse_weights)):
        assert nodes.ndim == 2 and weights.shape == (len(nodes),)
        assert np.all(np.isfinite(nodes)) and np.all(weights > 0.0)
    assert quad.coarse_nodes.shape[1] == quad.nodes.shape[1]
    assert len(quad.coarse_nodes) < len(quad.nodes)


def _log_gauss(Y):
    # batched log integrand on a stack: (L, b, dim) nodes -> (L, b) values
    return -np.sum(Y * Y, axis=-1) + np.sin(Y[..., 0])


@pytest.mark.parametrize("stacked, alone", [
    (lambda: quadrature.hermite_quadrature(SU2, 7, 0.8, center=[[0.0, 1.0, 0.5], [-2.0, 0.0, 1.0],
                                                                 [0.3, 0.3, 0.3]]),
     lambda i: quadrature.hermite_quadrature(
         SU2, 7, 0.8, center=[[0.0, 1.0, 0.5], [-2.0, 0.0, 1.0], [0.3, 0.3, 0.3]][i])),
    (lambda: quadrature.cartan_quadrature(SU3, [4.0, 6.5, 9.0], points_per_panel=4, panels=3),
     lambda i: quadrature.cartan_quadrature(SU3, [4.0, 6.5, 9.0][i], points_per_panel=4,
                                            panels=3)),
], ids=["hermite-su2", "cartan-su3"])
def test_a_stack_of_rules_is_its_rules_one_by_one(stacked, alone):
    # nodes and weights stay flat and rule-major, so len(nodes) counts every
    # node; each rule of a stack integrates to the bits it gives alone, and a
    # stack of one is the single rule
    quad = stacked()
    singles = [alone(i) for i in range(3)]
    assert quad.rules == 3 and all(q.rules == 1 for q in singles)
    for field in ("nodes", "weights", "coarse_nodes", "coarse_weights"):
        np.testing.assert_array_equal(getattr(quad, field),
                                      np.concatenate([getattr(q, field) for q in singles]))
    assert len(quad.nodes) == sum(len(q.nodes) for q in singles)
    got = quadrature.integrate_algebra_log(_log_gauss, quad)
    assert got == [quadrature.integrate_algebra_log(_log_gauss, q)[0] for q in singles]
    # every slice holds nodes of all three rules, at most BATCH in all
    seen = []
    quadrature.integrate_algebra_log(lambda Y: seen.append(Y.shape) or _log_gauss(Y), quad)
    assert all(shape[0] == 3 and 3 * shape[1] <= quadrature.BATCH for shape in seen)


@pytest.mark.parametrize("bad", [
    lambda Y: np.zeros(Y.shape[1]),      # one row for the whole stack
    lambda Y: np.zeros(Y.shape[:-1] + (1,)),
    lambda Y: np.zeros((Y.shape[0] + 1, Y.shape[1])),
])
def test_integrate_algebra_log_rejects_a_wrong_stack_shape(bad):
    quad = quadrature.hermite_quadrature(TORUS, 8, center=[[0.0], [1.0]])
    with pytest.raises(ValueError, match="shape"):
        quadrature.integrate_algebra_log(bad, quad)


def test_integrate_algebra_log_rejects_nonfinite_and_stacks_go_nowhere_else():
    quad = quadrature.hermite_quadrature(TORUS, 8, center=[[0.0], [1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        quadrature.integrate_algebra_log(lambda Y: np.where(Y[..., 0] > 0.5, np.nan, 0.0), quad)
    with pytest.raises(ValueError, match="one rule"):
        quadrature.integrate_algebra(lambda Y: np.ones(len(Y)), quad)


def test_the_node_cap_bounds_a_whole_stack(monkeypatch):
    # a stack of rules each under the cap is refused once its total is over
    monkeypatch.setattr(quadrature, "MAX_TENSOR_NODES", 3 * 8**3)
    assert len(quadrature.hermite_quadrature(SU2, 8, center=np.zeros((3, 3))).nodes) == 3 * 8**3
    with pytest.raises(ValueError, match="too large"):
        quadrature.hermite_quadrature(SU2, 8, center=np.zeros((4, 3)))
    monkeypatch.setattr(quadrature, "MAX_TENSOR_NODES", 2 * 12**2)
    assert quadrature.cartan_quadrature(SU3, [4.0, 5.0], 4, 3).rules == 2
    with pytest.raises(ValueError, match="too large"):
        quadrature.cartan_quadrature(SU3, [4.0, 5.0, 6.0], 4, 3)


def test_array_valued_integral_is_its_entries_integrals_bit_for_bit():
    # a declared (d, d) value shape sums each entry like a scalar integrand
    quad = quadrature.spherical_radial(SU2, 12, 1.0, 4)
    M = np.arange(1, 7).reshape(2, 3) * (1.0 + 0.5j)

    def F(Y):
        return (gauss(Y) * np.cos(Y[:, 0]))[:, None, None] * M + Y[:, 1, None, None] ** 2

    value, err = quadrature.integrate_algebra(F, quad, shape=(2, 3))
    assert value.shape == (2, 3)
    errs = []
    for i, k in np.ndindex(2, 3):
        v, e = quadrature.integrate_algebra(lambda Y: F(Y)[:, i, k], quad)
        assert value[i, k] == v
        errs.append(e)
    assert err == max(errs)
    with pytest.raises(ValueError, match="shape"):
        quadrature.integrate_algebra(F, quad, shape=(3, 2))


def test_integrand_called_per_batch_in_node_order():
    # one array call per batch of at most BATCH nodes: the fine nodes
    # first, then the companion nodes, each in rule order
    seen = []

    def f(Y):
        seen.append(Y.copy())
        return gauss(Y)

    quad = quadrature.hermite_quadrature(SU2, 12)
    quadrature.integrate_algebra(f, quad)
    batch = quadrature.BATCH
    assert len(seen) == -(-len(quad.nodes) // batch) - (-len(quad.coarse_nodes) // batch)
    assert all(len(Y) <= batch for Y in seen)
    np.testing.assert_array_equal(
        np.concatenate(seen), np.concatenate([quad.nodes, quad.coarse_nodes]))


def test_weyl_constant_matches_scipy_rule():
    # the cached numpy Gauss-Hermite rule agrees with scipy's to roundoff
    from scipy.special import roots_hermite

    for g in (SU2, SU3):
        x, w = roots_hermite(8)
        H = np.stack(np.meshgrid(*([x] * g.rank), indexing="ij"), -1).reshape(-1, g.rank)
        W = np.prod(np.stack(np.meshgrid(*([w] * g.rank), indexing="ij"), -1), -1).ravel()
        jac = np.prod((H @ g.positive_roots.T) ** 2, axis=1)
        want = math.pi ** (g.dim / 2) / math.fsum(W * jac)
        assert quadrature.weyl_constant(g) == pytest.approx(want, rel=1e-14)
        assert quadrature.weyl_constant(groups.group_spec(g.kind)) == quadrature.weyl_constant(g)


def _scipy_special():
    # scipy is a test-only reference: the package itself never imports it
    return pytest.importorskip("scipy.special")


def test_gauss_hermite_bit_identical_to_scipy_up_to_150_points():
    sp = _scipy_special()
    for n in range(1, 151):
        x, detached = quadrature._gauss_hermite(n)
        xs, ws = sp.roots_hermite(n)
        assert np.array_equal(x, xs), n
        assert np.array_equal(detached, np.exp(np.log(ws) + xs * xs)), n


@pytest.mark.parametrize("n", [151, 225, 300, 350])
def test_gauss_hermite_long_rules_match_scipy_nodes_and_moments(n):
    sp = _scipy_special()
    x, detached = quadrature._gauss_hermite(n)
    assert np.max(np.abs(x - sp.roots_hermite(n)[0])) < 1e-13
    w = detached * np.exp(-x * x)
    for k in range(11):
        # int x^{2k} e^{-x^2} dx = Gamma(k + 1/2)
        exact = math.gamma(k + 0.5)
        assert abs(math.fsum(w * x ** (2 * k)) - exact) < 1e-13 * exact, k


def test_gauss_hermite_cached_arrays_are_read_only():
    x, detached = quadrature._gauss_hermite(24)
    assert quadrature._gauss_hermite(24)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        detached[0] = 0.0


def test_gauss_legendre_cached_arrays_are_read_only_and_bit_equal():
    for n in (4, 10, 14, 27):
        x, w = quadrature._gauss_legendre(n)
        assert quadrature._gauss_legendre(n)[0] is x
        xs, ws = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, xs) and np.array_equal(w, ws), n
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


@pytest.mark.parametrize("group, panels", [(SU2, 10), (SU3, 4)])
def test_cartan_rules_bit_identical_without_the_legendre_cache(monkeypatch, group, panels):
    cached = quadrature.cartan_quadrature(group, 6.0, 14, panels)
    monkeypatch.setattr(quadrature, "_gauss_legendre", np.polynomial.legendre.leggauss)
    fresh = quadrature.cartan_quadrature(group, 6.0, 14, panels)
    for field in ("nodes", "weights", "coarse_nodes", "coarse_weights"):
        assert np.array_equal(getattr(cached, field), getattr(fresh, field)), field


def test_logsumexp_bit_identical_to_scipy():
    sp = _scipy_special()
    rng = np.random.default_rng(11)
    cases = [np.array([2.5]), np.full(4, -np.inf), np.array([1.0, 3.0, 3.0, -np.inf])]
    for _ in range(300):
        a = rng.normal(size=int(rng.integers(1, 40))) * rng.choice([1.0, 30.0, 700.0])
        a[rng.random(a.shape) < 0.2] = -np.inf
        if rng.random() < 0.5:
            a[rng.integers(len(a))] = np.max(a)  # a tie at the maximum
        cases.append(a)
    for a in cases:
        assert np.array_equal(quadrature.logsumexp(a), sp.logsumexp(a))
    for _ in range(100):
        A = rng.normal(size=(6, int(rng.integers(1, 20)))) * 50.0
        A[rng.random(A.shape) < 0.2] = -np.inf
        A[0] = -np.inf
        A[1, :] = A[1, 0]
        assert np.array_equal(quadrature.logsumexp(A, axis=1), sp.logsumexp(A, axis=1))
