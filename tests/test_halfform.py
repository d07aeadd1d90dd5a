"""Half-form densities: eta, |Omega_s|^2, the wedge identity, and phi."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bksverify import groups, halfform

TORUS = groups.group_spec("torus", n=1)
SU2 = groups.group_spec("su2")
SU3 = groups.group_spec("su3")


def su2_direction_with_root_value(value):
    # alpha(Y) for Y along a Cartan direction, rescaled so alpha(Y) = value
    Y0 = np.zeros(3)
    Y0[SU2.cartan_indices[0]] = 1.0
    a0 = halfform.root_values(SU2, Y0)[0]
    return Y0 * (value / a0)


def test_eta_at_zero_is_one():
    for g in (TORUS, SU2, SU3):
        assert halfform.eta(g, np.zeros(g.dim)) == pytest.approx(1.0, rel=1e-14)


def test_eta_torus_identically_one():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert halfform.eta(TORUS, rng.standard_normal(1)) == 1.0


def test_eta_su2_closed_form():
    Y = su2_direction_with_root_value(1.0)
    assert halfform.eta(SU2, Y) == pytest.approx(math.sinh(1.0), rel=1e-12)
    # Ad-invariance: conjugating Y leaves eta unchanged
    rng = np.random.default_rng(1)
    Yr = rng.standard_normal(3)
    a = halfform.root_values(SU2, Yr)[0]
    assert halfform.eta(SU2, Yr) == pytest.approx(math.sinh(a) / a, rel=1e-10)


def test_eta_small_argument_series():
    # sinh(x)/x branch switch must be smooth through 1e-4
    Y = su2_direction_with_root_value(1e-5)
    assert halfform.eta(SU2, Y) == pytest.approx(1.0 + 1e-10 / 6.0, rel=1e-12)


def test_eta_is_at_least_one():
    rng = np.random.default_rng(2)
    for g in (SU2, SU3):
        for _ in range(20):
            assert halfform.eta(g, rng.standard_normal(g.dim)) >= 1.0


def test_omega_norm_sq_torus_and_origin():
    rng = np.random.default_rng(3)
    for s in (0.3, 1.0, 2.5):
        assert halfform.omega_norm_sq(TORUS, s, rng.standard_normal(1)) == pytest.approx(s, rel=1e-14)
        assert halfform.omega_norm_sq(SU2, s, np.zeros(3)) == pytest.approx(s ** 3, rel=1e-13)


def test_omega_norm_sq_su2_closed_form():
    # s^n eta(sY)^2 with alpha(Y) = 1: at s = 2 this is 8 (sinh 2 / 2)^2
    Y = su2_direction_with_root_value(1.0)
    want = 8.0 * (math.sinh(2.0) / 2.0) ** 2
    assert halfform.omega_norm_sq(SU2, 2.0, Y) == pytest.approx(want, rel=1e-12)


def test_omega_norm_sq_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        halfform.omega_norm_sq(SU2, 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        halfform.omega_norm_sq(SU2, -1.0, np.zeros(3))


def test_wedge_density_closed_forms():
    rng = np.random.default_rng(4)
    Y1 = rng.standard_normal(1)
    assert halfform.wedge_density(TORUS, 0.5, 2.0, Y1) == pytest.approx(1.25, rel=1e-14)
    Y3 = rng.standard_normal(3)
    assert halfform.wedge_density(SU2, 1.0, 1.0, Y3) == pytest.approx(
        halfform.omega_norm_sq(SU2, 1.0, Y3), rel=1e-13)
    # symmetric in (s, s')
    assert halfform.wedge_density(SU2, 0.7, 2.1, Y3) == pytest.approx(
        halfform.wedge_density(SU2, 2.1, 0.7, Y3), rel=1e-12)


def test_wedge_density_det_at_origin():
    for g, s, sp in ((SU2, 1.0, 2.0), (SU3, 0.5, 2.0)):
        val = halfform.wedge_density_det(g, s, sp, np.zeros(g.dim))
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(((s + sp) / 2.0) ** g.dim, rel=1e-11)


def test_wedge_identity_su2():
    rng = np.random.default_rng(5)
    for _ in range(10):
        Y = rng.standard_normal(3)
        det = halfform.wedge_density_det(SU2, 1.0, 2.0, Y)
        closed = halfform.wedge_density(SU2, 1.0, 2.0, Y)
        assert abs(det - closed) / closed < 1e-9


def test_wedge_identity_su3():
    rng = np.random.default_rng(6)
    for _ in range(5):
        Y = rng.standard_normal(8)
        det = halfform.wedge_density_det(SU3, 0.5, 2.0, Y)
        closed = halfform.wedge_density(SU3, 0.5, 2.0, Y)
        assert abs(det - closed) / closed < 1e-8


def test_wedge_identity_random_sweep():
    # the determinant route never sees the closed form; 100 joint samples
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g = (SU2, SU3)[int(rng.integers(2))]
        s = float(rng.uniform(0.1, 4.0))
        sp = float(rng.uniform(0.1, 4.0))
        Y = rng.standard_normal(g.dim)
        Y *= min(1.0, 2.0 / np.linalg.norm(Y))
        det = halfform.wedge_density_det(g, s, sp, Y)
        closed = halfform.wedge_density(g, s, sp, Y)
        worst = max(worst, abs(det - closed) / closed)
    assert worst < 1e-8


def _wedge_det_2n_reference(group, s, s_prime, Y):
    """The defining 2n x 2n determinant in mpmath, block by block."""
    mpmath = pytest.importorskip("mpmath")
    A = groups.ad_matrix(group, Y)
    n = group.dim
    budget = (s + s_prime) * float(np.sum(np.abs(groups.root_values(group, Y))))

    def exp_and_phi1(Amp, t):
        # e^{-itA} and it*phi1(-itA) by series at 1-norm 1e-3 and doubling
        arg = (-1j * t) * Amp
        norm, k = mpmath.mnorm(arg, 1), 0
        while norm > 1e-3:
            norm, k = norm * 0.5, k + 1
        As = arg / (2 ** k)
        eye = mpmath.eye(n)
        E, P, term = mpmath.zeros(n), mpmath.zeros(n), mpmath.eye(n)
        for j in range(1, max(12, int(mpmath.mp.dps / 2.5)) + 1):
            E += term
            P += term / j
            term = term * As / j
        E += term
        for _ in range(k):
            P = P * (E + eye) / 2
            E = E * E
        return E, (1j * t) * P

    with mpmath.workdps(40 + int(0.6 * budget)):
        Amp = mpmath.matrix(A.tolist())
        Ms, Ns = exp_and_phi1(Amp, s)
        Mp, Np = exp_and_phi1(Amp, s_prime)
        big = mpmath.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                big[i, j] = mpmath.conj(Ms[i, j])
                big[i, n + j] = mpmath.conj(Ns[i, j])
                big[n + i, j] = Mp[i, j]
                big[n + i, n + j] = Np[i, j]
        sign = (-1) ** (n * (n - 1) // 2)
        return complex(mpmath.det(big) * sign / (mpmath.mpc(2j) ** n * sign))


@pytest.mark.parametrize("group,samples", [(SU2, 5), (SU3, 3)], ids=["su2", "su3"])
def test_wedge_det_matches_the_2n_determinant(group, samples):
    # (t/2)^n det sinh(W)/W in fixed point against the unreduced block determinant
    rng = np.random.default_rng(16)
    for _ in range(samples):
        Y = rng.standard_normal(group.dim)
        s, sp = (float(v) for v in rng.uniform(0.25, 3.0, size=2))
        det = halfform.wedge_density_det(group, s, sp, Y)
        ref = _wedge_det_2n_reference(group, s, sp, Y)
        assert abs(det - ref) / abs(ref) < 1e-12


@pytest.mark.parametrize("group", [SU2, SU3], ids=lambda g: g.kind)
def test_wedge_det_at_the_largest_exponent_budget(group):
    # s = s' = 3 and |Y| = 5: entries near e^{6 alpha(Y)}, far past float64
    rng = np.random.default_rng(17)
    for _ in range(2):
        Y = rng.standard_normal(group.dim)
        Y *= 5.0 / np.linalg.norm(Y)
        det = halfform.wedge_density_det(group, 3.0, 3.0, Y)
        closed = halfform.wedge_density(group, 3.0, 3.0, Y)
        assert abs(det - closed) / closed < 1e-10


@pytest.mark.parametrize("group, radius", [(SU2, 20.5), (SU3, 13.5)],
                         ids=["su2", "su3"])
def test_wedge_det_where_fixed_point_entries_leave_float_range(group, radius):
    # s = s' = 3: the precision asks for more than 2^1024 times the entries
    # of ad_Y, past float range, while the density itself is near 1e283
    Y = np.random.default_rng(0).standard_normal(group.dim)
    Y *= radius / np.linalg.norm(Y)
    closed = halfform.wedge_density(group, 3.0, 3.0, Y)
    assert 1e280 < closed < 1e300
    det = halfform.wedge_density_det(group, 3.0, 3.0, Y)
    assert det.real == pytest.approx(closed, rel=1e-10)


def test_fixed_point_conversion_truncates_like_int():
    rng = np.random.default_rng(5)
    for v in rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200):
        for b in (0, 3, 60, 200):
            assert halfform._to_fixed(v, b) == int(math.ldexp(v, b))
    assert halfform._to_fixed(-1.75, 0) == -1
    assert halfform._to_fixed(-1e300, 100) == -int(1e300) << 100


def test_wedge_det_is_exact_on_the_torus():
    # ad_Y = 0, so sinh(W)/W = 1 exactly; the golden wedge/torus row needs rel 0
    rng = np.random.default_rng(18)
    for _ in range(50):
        s, sp = (float(v) for v in rng.uniform(0.05, 5.0, size=2))
        Y = rng.standard_normal(1)
        assert halfform.wedge_density_det(TORUS, s, sp, Y) == complex(
            halfform.wedge_density(TORUS, s, sp, Y), 0.0)
    s, sp = rng.uniform(0.05, 5.0, size=(2, 50))
    Y = rng.standard_normal((50, 1))
    det = halfform.wedge_density_det(TORUS, s, sp, Y)
    assert np.array_equal(det, halfform.wedge_density(TORUS, s, sp, Y).astype(complex))


@pytest.mark.parametrize("group", [TORUS, SU2, SU3], ids=lambda g: g.kind)
def test_wedge_det_batch_of_one_keeps_the_scalar_contract(group):
    # one vector gives a complex number, a batch of one a (1,) array
    Y = np.random.default_rng(20).standard_normal(group.dim)
    one = halfform.wedge_density_det(group, 0.7, 1.9, Y)
    batch = halfform.wedge_density_det(group, 0.7, 1.9, Y[None])
    assert type(one) is complex
    assert batch.shape == (1,) and batch.dtype == complex
    assert batch[0] == one


@pytest.mark.parametrize("group", [TORUS, SU2, SU3], ids=lambda g: g.kind)
def test_wedge_density_takes_per_sample_parameters(group):
    # arrays of s and s' give row by row the one-vector values, bit for bit
    rng = np.random.default_rng(21)
    Y = rng.standard_normal((30, group.dim))
    s, sp = rng.uniform(0.25, 3.0, size=(2, 30))
    rows = [halfform.wedge_density(group, float(a), float(b), y)
            for a, b, y in zip(s, sp, Y)]
    assert np.array_equal(halfform.wedge_density(group, s, sp, Y), rows)


def _job_draws(kind):
    from bksverify import suite

    group = groups.group_spec(kind)
    return (group,) + suite._sample_draws(group, suite._job_seed(0, f"wedge/{kind}"), 100, 2)


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_batched_wedge_det_matches_the_per_sample_route(kind):
    # the wedge job's default draws, then the largest budget s = s' = 3,
    # against the phi1 route one matrix at a time at 1-norm 1e-3: the
    # sinh(W)/W factorization checked numerically
    group, Y, s, sp = _job_draws(kind)
    cases = [(s, sp, Y), (np.full(25, 3.0), np.full(25, 3.0), Y[:25])]
    for s, sp, Y in cases:
        det = halfform.wedge_density_det(group, s, sp, Y)
        ref = np.array([oracles.wedge_density_det_per_sample(group, a, b, y)
                        for a, b, y in zip(s, sp, Y)])
        np.testing.assert_allclose(det.real, ref.real, rtol=1e-15, atol=0.0)
        assert np.all(det.imag == 0.0)


@pytest.mark.parametrize("group", [SU2, SU3], ids=lambda g: g.kind)
def test_mixed_budget_batch_gives_each_sample_its_own_value(group, monkeypatch):
    # 80 bits next to about two hundred: each row keeps the precision its
    # own budget needs, whatever else is in the batch
    bits_seen = []

    def recorded(A, t, bits):
        bits_seen.append(bits.tolist())
        return sinhc_matrix(A, t, bits)

    sinhc_matrix = halfform._sinhc_matrix
    monkeypatch.setattr(halfform, "_sinhc_matrix", recorded)
    rng = np.random.default_rng(22)
    Y = rng.standard_normal((6, group.dim))
    Y *= np.array([0.05, 5.0, 0.5, 5.0, 0.05, 2.0])[:, None] / np.linalg.norm(
        Y, axis=1, keepdims=True)
    s = np.array([0.25, 3.0, 1.0, 3.0, 0.3, 2.0])
    sp = np.array([0.25, 3.0, 0.5, 2.5, 0.25, 1.0])
    det = halfform.wedge_density_det(group, s, sp, Y)
    alone = [halfform.wedge_density_det(group, a, b, y) for a, b, y in zip(s, sp, Y)]
    np.testing.assert_allclose(det.real, np.real(alone), rtol=1e-15, atol=0.0)
    assert bits_seen[0] == [b for (b,) in bits_seen[1:]]
    # 80 + (t/2) sum |alpha(Y)| / ln 2 bits: 81 at |Y| = 0.05, 188 or more
    # at |Y| = 5 with s + s' >= 5.5
    assert min(bits_seen[0]) < 90 < 150 < max(bits_seen[0])
    closed = halfform.wedge_density(group, s, sp, Y)
    np.testing.assert_allclose(det.real, closed, rtol=1e-12, atol=0.0)


def test_series_terms_meet_the_stated_tail_bound():
    # for every precision the default SU(3) wedge job reaches, m terms at
    # radius r leave a tail r^(m+1)/(m+1)! e^r <= 2^-(bits + guard), and
    # m - 1 terms would not; e^r is bracketed by rationals, so this is exact
    from fractions import Fraction

    group, Y, s, sp = _job_draws("su3")
    budget = 0.5 * (s + sp) * np.sum(np.abs(groups.root_values(group, Y)), axis=-1)
    top = max(80 + math.ceil(b / math.log(2)) for b in budget)
    assert top > 200
    r = Fraction(halfform._SERIES_RADIUS)
    assert 0 < r <= 40
    exp_low = sum(r**j / math.factorial(j) for j in range(81))
    exp_high = exp_low + 2 * r**81 / math.factorial(81)
    for bits in range(80, top + 1):
        m = halfform._series_terms(bits)
        unit = Fraction(1, 2 ** (bits + halfform._SERIES_GUARD))
        assert r ** (m + 1) / math.factorial(m + 1) * exp_high <= unit, bits
        assert r**m / math.factorial(m) * exp_low > unit, bits


def test_bareiss_det_row_swap_and_singular():
    # a zero leading pivot forces a row swap; a singular matrix gives 0
    def one(m):
        return halfform._bareiss_det(np.array(m, dtype=object)[None])[0]

    assert one([[0, 1, 2], [3, 0, 1], [1, 1, 0]]) == 7
    rng = np.random.default_rng(19)
    m = rng.integers(-9, 10, size=(5, 5))
    assert one(m) == round(np.linalg.det(m))
    assert one([[1, 2], [2, 4]]) == 0
    assert one([[5]]) == 5


def _cofactor_det(m):
    """Exact determinant of a square list of integers."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * a * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]))


def test_bareiss_det_pivots_each_matrix_of_a_stack_on_its_own():
    # matrix 0 has a zero (0,0) entry and swaps rows 0 and 2; matrix 1 is
    # singular, its column 1 running out after the first step; matrix 2
    # has a zero (2,0) entry, so swapping the whole stack, or no matrix,
    # puts a zero pivot in front of Bareiss; matrix 3 has entries past
    # 2^200, the sizes the fixed-point route takes
    rng = np.random.default_rng(23)
    big = [[int(v) << 200 for v in row] for row in rng.integers(-99, 100, size=(4, 4))]
    big[0][0] += 1
    M = np.array([
        [[0, 0, 0, 3], [0, 1, 0, 2], [2, 1, 1, 0], [1, 0, 3, 1]],
        [[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 2, 2], [1, 2, 5, 3]],
        [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 4, 1], [1, 0, 1, 2]],
        big,
    ], dtype=object)
    dets = halfform._bareiss_det(M)
    for i in range(len(M)):
        assert dets[i] == _cofactor_det([[int(a) for a in row] for row in M[i]]), i
    assert dets[1] == 0
    assert dets[0] != 0 and dets[2] != 0 and dets[3] != 0


def test_phi_trivial_values():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal(3)
    assert halfform.phi(SU2, 1.3, 1.3, Y) == pytest.approx(1.0, rel=1e-12)
    assert halfform.phi(SU2, 1.0, 4.0, np.zeros(3)) == pytest.approx((5.0 / 4.0) ** 3, rel=1e-12)


def test_phi_torus_closed_form():
    rng = np.random.default_rng(9)
    Y = rng.standard_normal(1)
    for s, sp in ((0.5, 2.0), (1.0, 3.0), (0.25, 0.3)):
        want = (s + sp) / (2.0 * math.sqrt(s * sp))
        assert halfform.phi(TORUS, s, sp, Y) == pytest.approx(want, rel=1e-13)


def test_phi_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        halfform.phi(SU2, 0.0, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        halfform.phi(SU2, 1.0, -0.5, np.zeros(3))


@given(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=0.1, max_value=4.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_phi_symmetric_and_normalized(s, sp, seed):
    Y = np.random.default_rng(seed).standard_normal(3)
    assert halfform.phi(SU2, s, sp, Y) == halfform.phi(SU2, sp, s, Y)
    assert halfform.phi(SU2, s, s, Y) == pytest.approx(1.0, rel=1e-12)
    assert halfform.phi(SU2, s, sp, Y) > 0.0


@pytest.mark.parametrize("group", [SU2, SU3], ids=lambda g: g.kind)
def test_phi_is_one_eigen_solve_of_the_density_ratio(group, monkeypatch):
    # phi scales the root values of Y instead of solving ad_{sY}, ad_{s'Y}
    # and ad_{mid Y}; it still equals the ratio of the three densities
    rng = np.random.default_rng(15)
    Y = rng.standard_normal((20, group.dim)) * 1.5
    s, sp = 0.8, 2.5
    want = halfform.wedge_density(group, s, sp, Y) / np.sqrt(
        halfform.omega_norm_sq(group, s, Y) * halfform.omega_norm_sq(group, sp, Y))
    calls = []

    def counted(g, y):
        calls.append(np.shape(y))
        return groups.root_values(g, y)

    monkeypatch.setattr(halfform, "root_values", counted)
    np.testing.assert_allclose(halfform.phi(group, s, sp, Y), want, rtol=1e-12)
    assert calls == [Y.shape]


def test_phi_finite_where_the_densities_overflow():
    # the corner node of the SU(3) prequantum rule (box 9.0): root values
    # reach 54, so eta(4Y)^2 leaves float range while phi stays near 1.56
    from bksverify import quadrature

    mpmath = pytest.importorskip("mpmath")
    quad = quadrature.cartan_quadrature(SU3, 9.0, points_per_panel=14, panels=10)
    Y = quad.nodes[np.argmax(np.abs(quad.nodes).sum(axis=1))]
    rv = groups.root_values(SU3, Y)
    assert rv.max() > 50.0

    def density(t):
        t = mpmath.mpf(t)
        return t ** SU3.dim * mpmath.fprod(
            (mpmath.sinh(t * a) / (t * a)) ** 2 for a in map(mpmath.mpf, rv))

    with mpmath.workdps(40):
        want = float(density(2.5) / mpmath.sqrt(density(1.0) * density(4.0)))
    got = halfform.phi(SU3, 1.0, 4.0, Y)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)
    assert np.all(np.isfinite(halfform.phi(SU3, 1.0, 4.0, quad.nodes)))


@pytest.mark.parametrize("group", [TORUS, SU2, SU3], ids=lambda g: g.kind)
def test_phi_takes_per_row_parameters(group):
    # arrays of s and s' give row by row the one-vector values, bit for bit
    rng = np.random.default_rng(23)
    Y = rng.standard_normal((30, group.dim)) * 1.5
    s, sp = rng.uniform(0.25, 3.0, size=(2, 30))
    rows = [halfform.phi(group, float(a), float(b), y) for a, b, y in zip(s, sp, Y)]
    assert np.array_equal(halfform.phi(group, s, sp, Y), rows)
    rows = [halfform.phi_flatness_residual(group, float(a), y, 1e-5) for a, y in zip(s, Y)]
    assert np.array_equal(halfform.phi_flatness_residual(group, s, Y, 1e-5), rows)


def test_phi_flatness_torus_quadratic_in_h():
    rng = np.random.default_rng(10)
    Y = rng.standard_normal(1)
    for h in (1e-2, 1e-3):
        r = halfform.phi_flatness_residual(TORUS, 1.7, Y, h)
        assert abs(r) <= h * h


def test_phi_flatness_su2_su3():
    rng = np.random.default_rng(11)
    assert abs(halfform.phi_flatness_residual(SU2, 1.0, np.zeros(3), 1e-4)) <= 1e-8
    for _ in range(20):
        Y = rng.standard_normal(8) * 0.7
        assert abs(halfform.phi_flatness_residual(SU3, 0.7, Y, 1e-4)) <= 1e-6


def test_phi_bounded_on_ball():
    # for fixed (s, s') the sampled sup over |Y| <= 10 stays well inside
    # the abelian upper bound is attained as alpha(Y) -> infinity; just check
    # finiteness and that large |Y| does not blow up
    rng = np.random.default_rng(12)
    vals = []
    for _ in range(200):
        Y = rng.standard_normal(3)
        Y *= rng.uniform(0.0, 10.0) / np.linalg.norm(Y)
        vals.append(halfform.phi(SU2, 1.0, 2.0, Y))
    assert np.all(np.isfinite(vals))
    assert max(vals) < 10.0


@pytest.mark.parametrize("group", [TORUS, SU2, SU3], ids=lambda g: g.kind)
def test_batched_densities_match_one_vector_calls(group):
    # the (N, dim) forms are the (dim,) forms row by row
    rng = np.random.default_rng(13)
    Y = rng.standard_normal((40, group.dim)) * 1.5
    cases = {
        "eta": lambda y: halfform.eta(group, y),
        "omega": lambda y: halfform.omega_norm_sq(group, 0.8, y),
        "wedge": lambda y: halfform.wedge_density(group, 0.8, 2.5, y),
        "phi": lambda y: halfform.phi(group, 0.8, 2.5, y),
        "root_values": lambda y: groups.root_values(group, y),
    }
    for name, f in cases.items():
        batch = f(Y)
        rows = np.array([f(y) for y in Y])
        assert batch.shape == rows.shape, name
        np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=0.0, err_msg=name)


@pytest.mark.parametrize("group", [SU2, SU3], ids=lambda g: g.kind)
def test_cartan_eta_from_root_products_matches_eigen_solve(group):
    # on Cartan vectors the root values are H . alpha, so eta needs no
    # spectrum of ad_Y; the eigen-solve sees the same values up to sign
    rng = np.random.default_rng(14)
    H = rng.standard_normal((30, group.rank)) * 1.2
    Y = np.zeros((30, group.dim))
    Y[:, list(group.cartan_indices)] = H
    direct = halfform.eta_from_roots(H @ group.positive_roots.T)
    np.testing.assert_allclose(direct, halfform.eta(group, Y), rtol=1e-12)
    np.testing.assert_allclose(
        np.sort(np.abs(H @ group.positive_roots.T), axis=1),
        np.sort(groups.root_values(group, Y), axis=1), rtol=1e-12)
