"""Suite runner: job construction, determinism, error capture, emitters."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

import oracles
from bksverify import config, halfform, suite
from bksverify import pairing as pairing_mod

FAST_TORUS = dict(
    group="torus",
    torus_rank=1,
    band_limit=158.0,  # k <= 2
    s_grid=(0.5, 1.0),
    s_prime_grid=(0.0, 1.0),
    pairs_per_cell=1,
    identities=("wedge", "pairing", "bks-factor", "factorization", "continuity"),
)


def fast_cfg(**kw):
    merged = dict(FAST_TORUS)
    merged.update(kw)
    return config.default_config(**merged)


def test_build_jobs_keys_and_selection():
    cfg = fast_cfg()
    keys = [job.key for job in suite.build_jobs(cfg)]
    assert "wedge/torus" in keys
    assert "pairing/torus/random/s=0.5:sp=1" in keys
    assert "bks-factor/torus/(2,)/s=1:sp=1" in keys
    assert "factorization/torus/(0,)" in keys
    assert not any(k.startswith("delta") for k in keys)
    # prequantum has no torus job: phi is constant there, and a selection
    # that builds no check is a config error naming the groups it runs on
    cfg2 = fast_cfg(identities=("prequantum",))
    with pytest.raises(config.ConfigError, match="prequantum runs on su2, su3 only"):
        suite.build_jobs(cfg2)


def test_default_band_limit_values():
    from bksverify import groups
    assert suite.default_band_limit(groups.group_spec("torus", n=1)) == pytest.approx(
        25 * 4 * 3.14159265358979 ** 2, rel=1e-9)
    assert suite.default_band_limit(groups.group_spec("su2")) == pytest.approx(
        groups.casimir(groups.group_spec("su2"), (4,)), rel=1e-9)


def test_run_suite_passes_and_summary_counts():
    rep = suite.run_suite(fast_cfg())
    assert rep.summary["total"] == len(rep.reports) > 0
    assert rep.summary["failed"] == 0 and rep.summary["errors"] == 0
    assert rep.summary["passed"] == rep.summary["total"]
    assert all(r.passed for _, r in rep.reports)
    keys = [k for k, _ in rep.reports]
    assert keys == sorted(keys)
    assert rep.wall_clock > 0.0


def test_render_json_reproducible_across_runs():
    cfg = fast_cfg()
    first = suite.render_json(suite.run_suite(cfg))
    second = suite.render_json(suite.run_suite(cfg))
    assert first == second
    payload = json.loads(first)
    assert "wall_clock_seconds" not in payload
    assert list(payload) == ["version", "config", "summary", "reports"]


def test_seed_moves_sampled_rows_only():
    rows0 = {k: suite.render_csv(suite.SuiteReport({}, [(k, r)], {}, 0.0, ""))
             for k, r in suite.run_suite(fast_cfg(seed=0)).reports}
    rows1 = {k: suite.render_csv(suite.SuiteReport({}, [(k, r)], {}, 0.0, ""))
             for k, r in suite.run_suite(fast_cfg(seed=1)).reports}
    assert rows0.keys() == rows1.keys()
    for key in rows0:
        if key.startswith(("bks-factor", "factorization")):
            assert rows0[key] == rows1[key], key
    changed = [k for k in rows0 if rows0[k] != rows1[k]]
    assert any(k.startswith("pairing") for k in changed)


def test_errors_are_recorded_not_raised(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    raising_line = boom.__code__.co_firstlineno + 1
    # the prequantum row: under its inverted bar an infinite residual
    # would pass
    for kind, family, raising, prefix in [
        ("torus", "unitarity", "verify_unitarity", "U(1)^1"),
        ("su2", "prequantum", "preq_norm_sq", "SU(2)"),
    ]:
        cfg = fast_cfg(group=kind, identities=(family,), s_grid=(1.0,),
                       s_prime_grid=(0.5,))
        # an errored row names its group the way every other row does
        group = suite.run_suite(cfg).reports[0][1].group
        assert group.startswith(prefix)
        with monkeypatch.context() as mp:
            mp.setattr(pairing_mod, raising, boom)
            rep = suite.run_suite(cfg)
        assert rep.summary["total"] > 0
        assert rep.summary["errors"] == rep.summary["total"]
        for _, r in rep.reports:
            assert not r.passed
            assert r.group == group
            assert r.params["error"] == (
                f"RuntimeError: injected failure at test_suite.py:{raising_line}")
            assert r.residual == float("inf")


def test_empty_selection_yields_header_only_csv():
    rep = suite.run_suite(fast_cfg(identities=()))
    assert rep.summary == {"total": 0, "passed": 0, "failed": 0, "errors": 0}
    text = suite.render_csv(rep)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [list(suite._CSV_COLUMNS)]


def test_csv_shape_matches_json():
    rep = suite.run_suite(fast_cfg(identities=("bks-factor",)))
    rows = list(csv.reader(io.StringIO(suite.render_csv(rep))))
    assert rows[0] == list(suite._CSV_COLUMNS)
    assert len(rows) == 1 + rep.summary["total"]
    payload = json.loads(suite.render_json(rep))
    for line, entry in zip(rows[1:], payload["reports"]):
        assert line[0] == entry["key"]
        assert line[-1] == str(entry["passed"])
        assert float(line[8]) == entry["residual"]
        assert json.loads(line[3]) == entry["params"]


def test_emit_table_writes_report_and_summary(tmp_path):
    rep = suite.run_suite(fast_cfg(identities=("wedge",)))
    paths = suite.emit_table(rep, "json", str(tmp_path))
    assert [p.rsplit("/", 1)[1] for p in paths] == ["reports.json", "summary.json"]
    with open(paths[0], encoding="utf-8") as fh:
        assert json.load(fh)["summary"] == rep.summary
    with open(paths[1], encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["wall_clock_seconds"] == rep.wall_clock
    csv_paths = suite.emit_table(rep, "csv", str(tmp_path))
    assert csv_paths[0].endswith("reports.csv")


def test_factor_table_rows_and_emitter(tmp_path):
    cfg = fast_cfg()
    rows, all_passed = suite.pairing_factor_rows(cfg)
    # two irreps k = 1, 2 over the four positive cells
    assert len(rows) == 8 and all_passed
    for row in rows:
        assert row["residual"] <= 1e-9
        assert row["numeric_factor"] == pytest.approx(row["closed_factor"], rel=1e-9)
    path = suite.write_table(rows, suite.FACTOR_COLUMNS, "csv", str(tmp_path),
                             "pairing-factors")
    with open(path, encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert len(table) == 1 + len(rows)
    assert table[0][0] == "irrep"


def test_rank_two_torus_keys_and_run():
    # labels pad to the rank: (1, 0) is frequency 1 along the first circle
    cfg = fast_cfg(torus_rank=2, identities=("unitarity", "delta", "bks-factor"))
    keys = [job.key for job in suite.build_jobs(cfg)]
    assert "unitarity/torus/(1, 0)/s=1:sp=0" in keys
    assert "unitarity/torus/(5, 0)/s=0.5:sp=1" in keys
    assert "delta/torus/one/(2, 0)" in keys
    assert "delta/torus/two/(1, 0)" in keys
    assert "bks-factor/torus/(0, 1)/s=1:sp=1" in keys
    from bksverify import groups
    assert suite.default_band_limit(groups.group_spec("torus", n=2)) == pytest.approx(
        25 * 4 * math.pi ** 2, rel=1e-9)
    rep = suite.run_suite(fast_cfg(torus_rank=2, s_grid=(1.0,), s_prime_grid=(0.0, 0.5),
                                   identities=("unitarity", "delta", "pairing",
                                               "bks-factor")))
    assert rep.summary["total"] > 0
    assert rep.summary["passed"] == rep.summary["total"]
    assert all(r.group.startswith("U(1)^2") for _, r in rep.reports)


def test_tolerance_scale_and_override_reach_reports():
    rep = suite.run_suite(fast_cfg(identities=("wedge",), tolerance_scale=10.0))
    assert rep.reports[0][1].tolerance == pytest.approx(1e-7)
    cfg = fast_cfg(identities=("wedge",),
                   tolerance_overrides={"wedge": 1e-5})
    rep2 = suite.run_suite(cfg)
    assert rep2.reports[0][1].tolerance == pytest.approx(1e-5)


def test_hermite_points_reach_the_torus_character_rule():
    # the key sets the length of the torus character rule: the reports of
    # 8 and 64 points differ, 64 being the default
    def reports(**kw):
        rep = suite.run_suite(fast_cfg(identities=("bks-factor",), **kw))
        return [(k, r.lhs, r.error_estimate) for k, r in rep.reports]

    default = reports()
    assert reports(hermite_points=64) == default
    assert reports(hermite_points=8) != default


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_wedge_job_fails_when_the_closed_form_is_off(kind, monkeypatch):
    # a 1e-3 relative error in one route must show against the other
    from bksverify import groups
    group = groups.group_spec(kind)
    assert suite._job_wedge(group, 1e-8, 5, samples=3).passed
    closed = suite.wedge_density
    monkeypatch.setattr(suite, "wedge_density",
                        lambda *a: closed(*a) * (1.0 + 1e-3))
    rep = suite._job_wedge(group, 1e-8, 5, samples=3)
    assert not rep.passed
    assert rep.residual == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-6)


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_wedge_report_gives_the_worst_samples_absolute_and_relative_error(kind):
    # the residual is |det - closed| of the worst sample over its size, the
    # verdict reads it, and exact tori read 0 against 1
    from bksverify import groups
    group = groups.group_spec(kind)
    rep = suite._job_wedge(group, 1e-8, 5, samples=20)
    assert rep.passed
    assert rep.residual == abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs))
    if kind == "torus":
        assert (rep.lhs, rep.rhs, rep.residual) == (1.0, 1.0, 0.0)
        return
    assert 0.0 < rep.residual < 1e-12 < 1.0 < abs(rep.rhs)
    assert not suite._job_wedge(group, 0.5 * rep.residual, 5, samples=20).passed


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_phi_flatness_job_matches_the_per_sample_loop(kind):
    # one batched call over the job's default draws gives the worst residual
    # of the one-sample loop over the same generator
    from bksverify import groups
    group = groups.group_spec(kind)
    seed = suite._job_seed(0, f"phi-flatness/{kind}")
    rep = suite._job_phi_flatness(group, 1e-6, seed)
    assert rep.residual == oracles.phi_flatness_worst_per_sample(group, seed)
    assert rep.passed


@pytest.mark.parametrize("kind", ["torus", "su2"])
def test_phi_flatness_job_fails_on_a_negative_slope(kind, monkeypatch):
    # phi * (1 - 1e-3 (s' - s)) has d/ds' = -1e-3 at s' = s: the job keeps
    # the magnitude of the central difference, so the sign cannot hide it
    from bksverify import groups, halfform
    group = groups.group_spec(kind)
    # the O(h^2) truncation stays visible and under the bar
    rep = suite._job_phi_flatness(group, 1e-6, 5, samples=10)
    assert rep.passed and rep.residual > 0.0
    phi = halfform.phi
    monkeypatch.setattr(halfform, "phi",
                        lambda g, s, sp, Y: phi(g, s, sp, Y) * (1.0 - 1e-3 * (sp - s)))
    rep = suite._job_phi_flatness(group, 1e-6, 5, samples=10)
    assert not rep.passed
    assert rep.residual == pytest.approx(1e-3, rel=1e-3)


@pytest.fixture(scope="module", params=["torus", "su2", "su3"])
def default_run(request):
    """One default run per group, with every integral its char_gaussian_log
    calls computed, keyed (hbar0, t, label, rule backend, rule length)."""
    calls = []
    char_log = pairing_mod.char_gaussian_log

    def spy(group, hbar0, t, irreps, quad):
        calls.extend((hbar0, t, irrep.label, quad.backend, len(quad.nodes) // quad.rules)
                     for irrep in irreps)
        return char_log(group, hbar0, t, irreps, quad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing_mod, "char_gaussian_log", spy)
        rep = suite.run_suite(config.default_config(group=request.param))
    return request.param, rep, calls


# distinct character integrals of a default run: the table's (t, label)
# pairs plus delta-one's three, which run on a rule of their own
DEFAULT_CHAR_INTEGRALS = {"torus": 157, "su2": 77, "su3": 29}


def test_a_run_computes_each_character_integral_once(default_run):
    kind, rep, calls = default_run
    assert rep.summary["total"] == rep.summary["passed"] > 0
    assert len(set(calls)) == DEFAULT_CHAR_INTEGRALS[kind]
    assert len(calls) == len(set(calls))


def test_a_torus_run_stacks_its_character_integrals(monkeypatch):
    # a miss at t computes the asked labels and the band's missing ones in
    # one stacked call: one call per integral would make 157
    from bksverify import quadrature

    rules = []
    integrate_log = quadrature.integrate_algebra_log

    def count(logF, quad):
        rules.append(quad.rules)
        return integrate_log(logF, quad)

    monkeypatch.setattr(quadrature, "integrate_algebra_log", count)
    rep = suite.run_suite(config.default_config(group="torus"))
    assert rep.summary["total"] == rep.summary["passed"] > 0
    assert sum(rules) == DEFAULT_CHAR_INTEGRALS["torus"] and len(rules) <= 20


@pytest.mark.parametrize("kind, family", [
    ("torus", "unitarity"), ("torus", "bks-factor"), ("torus", "continuity"),
    ("su2", "unitarity"), ("su3", "unitarity"),
])
def test_a_selection_computes_only_the_integrals_it_asks(monkeypatch, kind, family):
    # the band is filled on a miss only when a selected family reads it:
    # unitarity alone asks its spectral labels and computes no more
    computed, asked = [], set()
    char_log, table = pairing_mod.char_gaussian_log, pairing_mod.char_log_table

    def spy(group, hbar0, t, irreps, quad):
        computed.extend((t, irrep.label) for irrep in irreps)
        return char_log(group, hbar0, t, irreps, quad)

    def asking_table(*args, **kwargs):
        inner = table(*args, **kwargs)

        def ask(t, irreps):
            asked.update((t, irrep.label) for irrep in irreps)
            return inner(t, irreps)
        return ask

    monkeypatch.setattr(pairing_mod, "char_gaussian_log", spy)
    monkeypatch.setattr(pairing_mod, "char_log_table", asking_table)
    suite.run_suite(config.default_config(group=kind, identities=(family,)))
    assert asked and sorted(computed) == sorted(asked)


def test_character_stacks_stay_under_the_node_cap(monkeypatch):
    # the node cap bounds a stack, not one rule: with room for three
    # 64-node rules, each t's ten band integrals take four stacks, and
    # every row keeps its bytes
    from bksverify import quadrature

    cfg = config.default_config(group="torus", identities=("bks-factor",))
    uncapped = _rows(suite.run_suite(cfg))
    cap = 3 * cfg.hermite_points
    monkeypatch.setattr(quadrature, "MAX_TENSOR_NODES", cap)
    stacks = []
    integrate_log = quadrature.integrate_algebra_log

    def spy(logF, quad):
        stacks.append((len(quad.nodes), quad.rules))
        return integrate_log(logF, quad)

    monkeypatch.setattr(quadrature, "integrate_algebra_log", spy)
    assert _rows(suite.run_suite(cfg)) == uncapped
    assert all(nodes <= cap for nodes, _ in stacks)
    assert sum(rules for _, rules in stacks) == 80 and len(stacks) == 8 * 4


def _rows(rep):
    return {row["key"]: json.dumps(row)
            for row in json.loads(suite.render_json(rep))["reports"]}


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_each_family_alone_gives_its_rows_from_verify_all(kind):
    # the jobs of a run share one character table; whichever family asks
    # for an integral first, every row reads the same bytes
    band = {} if kind == "torus" else {"band_limit": None}
    cfg = fast_cfg(group=kind, identities=config.IDENTITY_FAMILIES, **band)
    together = _rows(suite.run_suite(cfg))
    alone = {}
    for family in config.IDENTITY_FAMILIES:
        if kind not in config.FAMILIES[family].groups:
            continue
        alone.update(_rows(suite.run_suite(fast_cfg(group=kind, identities=(family,),
                                                    **band))))
    assert len(together) > 0
    assert alone == together


def _bar_holds(key, rep):
    # every bar bounds the residual (README, "Report fields"), but the
    # inverted prequantum bar needs its contrast above it
    if config.FAMILIES[key.split("/", 1)[0]].inverted:
        return rep.residual > rep.tolerance
    return rep.residual <= rep.tolerance


def test_families_agree_with_the_readme_table():
    # the README's "Report fields" table, read as an independent statement:
    # the same families, and the same ones inverted
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    lines = text[text.index("| family | verdict |"):].split("\n\n", 1)[0].splitlines()
    rows = [line.split("|")[1:3] for line in lines[2:]]
    table = {name.strip(" `"): "inverted" in verdict for name, verdict in rows}
    assert table == {name: fam.inverted for name, fam in config.FAMILIES.items()}


def test_each_bar_bounds_the_field_named_for_its_family(default_run):
    kind, rep, _ = default_run
    strict = suite.run_suite(config.default_config(group=kind, tolerance_scale=1e-30))
    assert strict.summary["failed"] > 0
    for run in (rep, strict):
        assert run.summary["errors"] == 0
        assert [k for k, r in run.reports if r.passed != _bar_holds(k, r)] == []


def _gaussian_importance(F, dim, samples, seed, scale):
    # int F dY as the mean of F(Y) / p(Y) over Y ~ N(0, scale^2 I), with
    # its standard error; plain numpy, independent of the package's rules
    xi = np.random.default_rng(seed).standard_normal((samples, dim))
    density = np.exp(-0.5 * np.sum(xi * xi, axis=1)) / ((2 * math.pi) ** (dim / 2) * scale ** dim)
    ratios = F(scale * xi) / density
    return ratios.mean(), ratios.std(ddof=1) / math.sqrt(samples)


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_prequantum_norms_agree_with_a_monte_carlo_route(kind):
    # second route for the job's Cartan-rule norm ratio.  At scale
    # 1/sqrt(2) the sampler's n0 has no variance, so the ratio's standard
    # error is that of n1 alone
    from bksverify import groups, halfform, quadrature
    group = groups.group_spec(kind)
    rep = suite._job_prequantum(group, 1e-3)
    assert rep.passed and rep.params["transport_drift"] == 0.0

    def gauss(Y):
        return np.exp(-np.sum(Y * Y, axis=1))

    quad = quadrature.cartan_quadrature(group, 9.0, points_per_panel=14, panels=10)
    n0, _ = quadrature.integrate_algebra(gauss, quad)
    assert n0 == pytest.approx(math.pi ** (group.dim / 2), rel=1e-12)

    scale = 1.0 / math.sqrt(2.0)
    m0, _ = _gaussian_importance(gauss, group.dim, 40_000, 7, scale)
    m1, e1 = _gaussian_importance(
        lambda Y: gauss(Y) * halfform.phi(group, 1.0, 4.0, Y), group.dim, 40_000, 7, scale)
    ratio = math.sqrt(m1 / m0)
    stderr = e1 / (2.0 * m0 * ratio)
    assert abs(ratio - rep.lhs) <= 4.0 * stderr, (ratio, rep.lhs, stderr)
    assert stderr < 0.1 * (rep.lhs - 1.0)


def test_factorization_reports_the_worst_cells_own_values():
    # when every cell's residual is 0 the row still shows a real cell's
    # two factors, not a placeholder 1.0
    from bksverify import groups
    su3 = groups.group_spec("su3")
    irrep = groups.make_irrep(su3, (0, 0))
    rep = suite._job_factorization(su3, 1.0, [(1.0, 0.5)], [(0.5, 1.0, 3.0)], irrep, 1e-14)
    want = pairing_mod.bks_factor_closed(su3, 1.0, 1.0, 0.5, irrep)
    assert want == pytest.approx(math.exp(-su3.rho_norm_sq / 4.0), rel=1e-14)
    assert rep.passed and rep.residual == 0.0
    assert rep.lhs == want and rep.rhs == pytest.approx(want, rel=1e-14)
    torus = groups.group_spec("torus", n=1)
    for k in (1, 2):
        irrep = groups.make_irrep(torus, (k,))
        rep = suite._job_factorization(torus, 1.0, [(0.5, 1.0), (1.0, 1.0)],
                                       [(0.5, 1.0, 3.0)], irrep, 1e-14)
        want = pairing_mod.bks_factor_closed(torus, 1.0, 0.5, 1.0, irrep)
        assert rep.residual == 0.0 and want > 1.0
        assert rep.lhs == rep.rhs == want


@pytest.mark.parametrize("kind", ["torus", "su2"])
def test_bks_jobs_fail_when_the_closed_exponent_is_off(kind, monkeypatch):
    # a 1e-3 relative error in the closed factor must fail every
    # bks-factor and factorization job, the s = s' cells included
    overrides = {"group": kind, "identities": ("bks-factor", "factorization")}
    if kind == "su2":
        overrides["band_limit"] = None
    cfg = fast_cfg(**overrides)
    rep = suite.run_suite(cfg)
    assert rep.summary["total"] > 0 and rep.summary["failed"] == 0
    exponent = pairing_mod.bks_exponent
    monkeypatch.setattr(pairing_mod, "bks_exponent",
                        lambda *a: exponent(*a) + math.log1p(1e-3))
    rep = suite.run_suite(cfg)
    assert rep.summary["errors"] == 0
    assert [k for k, r in rep.reports if r.passed] == []


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_unitarity_jobs_fail_when_the_map_is_off(kind, monkeypatch):
    # a 1e-3 error in the blocks of the pairing map must fail every
    # unitarity job, the s = s' cells (where the map is the identity) included
    from bksverify import heat
    cfg = fast_cfg(group=kind, band_limit=None, identities=("unitarity",))
    rep = suite.run_suite(cfg)
    assert rep.summary["total"] > 0 and rep.summary["failed"] == 0
    assert any(k.endswith("s=1:sp=1") for k, _ in rep.reports)
    apply = pairing_mod.bks_map_apply

    def off(s, s_prime, secp):
        sec = apply(s, s_prime, secp)
        blocks = {label: (1.0 + 1e-3) * b for label, b in sec.f.blocks.items()}
        return pairing_mod.QuantumSection(
            s=sec.s, f=heat.make_function(sec.f.group, blocks), hbar0=sec.hbar0)

    monkeypatch.setattr(pairing_mod, "bks_map_apply", off)
    rep = suite.run_suite(cfg)
    assert rep.summary["errors"] == 0
    assert [k for k, r in rep.reports if r.passed] == []


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_continuity_job_fails_when_the_norm_slope_is_off(kind, monkeypatch):
    # a 10% error in the slope |rho|^2 hbar0 of r(s) leaves the halving of
    # r(s) - 1 near 2; against the contract e^{|rho|^2 hbar0 s} it must fail
    cfg = fast_cfg(group=kind, band_limit=None, identities=("continuity",))
    rep = suite.run_suite(cfg)
    assert rep.summary["total"] == rep.summary["passed"] == 1
    norm_sq = pairing_mod.quantum_norm_sq

    def steeper(sec, char_log=None):
        value, err = norm_sq(sec, char_log)
        grow = math.exp(0.1 * sec.f.group.rho_norm_sq * sec.hbar0 * sec.s)
        return value * grow, err * grow

    monkeypatch.setattr(pairing_mod, "quantum_norm_sq", steeper)
    rep = suite.run_suite(cfg)
    assert rep.summary["errors"] == 0 and rep.summary["failed"] == 1


# Keys that pass under their family's mutation below.  The extrapolation
# bar is 3 x |extrapolant - v(1e-3)|, the first-order step, which on SU(2)
# and SU(3) exceeds a 1e-3 error in vertical_pair.
MUTATION_ALLOWED = ("vertical-limit/su2/extrapolation", "vertical-limit/su3/extrapolation")


def _assert_every_job_fails(cfg, mutate, monkeypatch):
    rep = suite.run_suite(cfg)
    assert rep.summary["total"] > 0 and rep.summary["failed"] == 0
    mutate(monkeypatch)
    rep = suite.run_suite(cfg)
    assert rep.summary["errors"] == 0
    assert [k for k, r in rep.reports if r.passed and k not in MUTATION_ALLOWED] == []


def _scaled(module, name, factor):
    # module.name with its value (the first entry of a (value, error)
    # pair) multiplied by factor
    fn = getattr(module, name)

    def off(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return (out[0] * factor,) + out[1:]
        return out * factor

    return off


def _shift_char_log(monkeypatch, eps=1e-3):
    # the shift depends on the irrep: a uniform one would cancel in the
    # orthogonal pairing rows, which read 0 whatever the common factor
    char_log = pairing_mod.char_gaussian_log

    def off(group, hbar0, t, irreps, quad):
        return [(logv + math.log1p(eps) + math.log1p(eps * c / (1.0 + c)), err)
                for (logv, err), c in zip(char_log(group, hbar0, t, irreps, quad),
                                          (irrep.casimir for irrep in irreps))]

    monkeypatch.setattr(pairing_mod, "char_gaussian_log", off)


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_pairing_jobs_fail_when_the_character_integral_is_off(kind, monkeypatch):
    cfg = fast_cfg(group=kind, band_limit=None, identities=("pairing",))
    _assert_every_job_fails(cfg, _shift_char_log, monkeypatch)


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_cst_jobs_fail_when_the_holomorphic_inner_product_is_off(kind, monkeypatch):
    # the group's default band: the quadrature route divides by |<f, f'>|,
    # the inner product it tests, so the 1e-3 error reads 1e-3 there
    cfg = fast_cfg(group=kind, band_limit=None, s_grid=(0.25, 1.0),
                   identities=("cst-unitarity",))

    def mutate(mp):
        mp.setattr(suite, "hl2_inner", _scaled(suite, "hl2_inner", 1.0 + 1e-3))

    _assert_every_job_fails(cfg, mutate, monkeypatch)


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_vertical_jobs_fail_when_the_vertical_pairing_is_off(kind, monkeypatch):
    cfg = fast_cfg(group=kind, band_limit=None, identities=("vertical-limit",))

    def mutate(mp):
        mp.setattr(pairing_mod, "vertical_pair",
                   _scaled(pairing_mod, "vertical_pair", 1.0 + 1e-3))

    _assert_every_job_fails(cfg, mutate, monkeypatch)


@pytest.mark.parametrize("kind", ["torus", "su2", "su3"])
def test_delta_jobs_fail_when_the_kernels_are_off(kind, monkeypatch):
    # delta-one goes through the character integral, the two-kernel
    # integrals are scaled directly.  Off the torus both shifts are ten
    # times the 1e-3 bar: at 1e-3 the trivial irrep's delta-one lands on
    # the bar itself, and labels 1 and 2 of SU(2) delta-two pass
    cfg = fast_cfg(group=kind, band_limit=None, identities=("delta",))

    def mutate(mp):
        _shift_char_log(mp, 1e-3 if kind == "torus" else 1e-2)
        mp.setattr(pairing_mod, "_delta_two_torus",
                   _scaled(pairing_mod, "_delta_two_torus", 1.0 + 1e-3))
        mp.setattr(pairing_mod, "_delta_two_su2",
                   _scaled(pairing_mod, "_delta_two_su2", 1.0 + 1e-2))

    _assert_every_job_fails(cfg, mutate, monkeypatch)


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_wedge_job_fails_when_the_determinant_route_is_off(kind, monkeypatch):
    # ad_Y scaled by 1 + 1e-6 on the determinant route alone: the closed
    # form keeps its root values, while det sinh(W)/W moves by about
    # (t alpha(Y)/2 - 1) * 2e-6 relative, far past the 1e-8 bar
    cfg = fast_cfg(group=kind, identities=("wedge",))

    def mutate(mp):
        mp.setattr(halfform, "ad_matrix", _scaled(halfform, "ad_matrix", 1.0 + 1e-6))

    _assert_every_job_fails(cfg, mutate, monkeypatch)


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_prequantum_job_fails_when_the_map_is_parallel_transport(kind, monkeypatch):
    # the inverted check must fail once the map preserves norms
    cfg = fast_cfg(group=kind, identities=("prequantum",))

    def mutate(mp):
        mp.setattr(pairing_mod, "preq_map_apply", pairing_mod.preq_parallel_transport)

    _assert_every_job_fails(cfg, mutate, monkeypatch)


@pytest.mark.parametrize("kind", ["su2", "su3"])
def test_prequantum_job_errors_when_parallel_transport_drifts(kind, monkeypatch):
    # transport must keep the norm; a drifting one is an errored row, which
    # the inverted bar must not pass
    cfg = fast_cfg(group=kind, identities=("prequantum",))
    transport = pairing_mod.preq_parallel_transport

    def drifting(s, s_prime, secp):
        moved = transport(s, s_prime, secp)
        return pairing_mod.PrequantumSection(
            group=moved.group, s=moved.s, amplitude=lambda Y: 1.001 * moved.amplitude(Y))

    monkeypatch.setattr(pairing_mod, "preq_parallel_transport", drifting)
    ((_, rep),) = suite.run_suite(cfg).reports
    assert not rep.passed
    assert rep.params["error"].startswith("ArithmeticError: parallel transport moved")


def test_su2_quadrature_rows_fail_one_sphere_degree_below_the_labels(monkeypatch):
    # the spherical-radial companion shares the sphere rule, so its estimate
    # cannot see a sphere degree that is too low; these rows must
    from bksverify import quadrature

    cfg = config.default_config(group="su2", identities=("cst-unitarity", "delta"))
    assert all(r.passed for _, r in suite.run_suite(cfg).reports)
    rule = quadrature.spherical_radial

    def lowered(group, points, scale, degree):
        return rule(group, points, scale, max(degree - 1, 0))

    monkeypatch.setattr(quadrature, "spherical_radial", lowered)
    failed = sorted(k for k, r in suite.run_suite(cfg).reports if not r.passed)
    assert failed == ["cst-unitarity/su2/quadrature/s=0.25",
                      "delta/su2/two/(1,)", "delta/su2/two/(2,)"]


def test_su2_quadrature_rows_pass_at_hbar0_3():
    # the radial peak moves outward with hbar0; 100 radial nodes hold every
    # row to rounding, where 100^3 tensor nodes would be needed
    cfg = config.default_config(group="su2", hbar0=3.0,
                                identities=("cst-unitarity", "delta"),
                                hl2_points_su2=100, delta_points_su2=100)
    rep = suite.run_suite(cfg)
    assert rep.summary == {"total": 10, "passed": 10, "failed": 0, "errors": 0}
    assert max(r.residual for _, r in rep.reports) < 1e-12


def test_su2_delta_two_estimates_come_from_the_companion():
    # every delta-two row reports the gap to its companion rule: nonzero,
    # and inside the bar at the default radial length
    def two_rows(**kw):
        cfg = config.default_config(group="su2", identities=("delta",), **kw)
        return {k: r for k, r in suite.run_suite(cfg).reports if k.startswith("delta/su2/two/")}

    rows = two_rows()
    assert len(rows) == 3
    assert all(0.0 < r.error_estimate < r.tolerance for r in rows.values())
    # on 16 radial nodes the estimate covers the residual of the failing
    # (2,) row, and flags (1,) above its bar while its residual still passes
    rows = two_rows(delta_points_su2=16)
    r1, r2 = rows["delta/su2/two/(1,)"], rows["delta/su2/two/(2,)"]
    assert not r2.passed and r2.error_estimate > r2.residual > r2.tolerance
    assert r1.passed and r1.residual < 1e-5 and r1.error_estimate > r1.tolerance


@pytest.mark.parametrize("hbar0", [0.05, 1.0, 3.0])
def test_torus_delta_two_estimates_come_from_the_companion(hbar0):
    # the fiber integral runs on a Hermite rule with a companion, so every
    # delta-two row reports a nonzero gap to it, inside the bar
    cfg = config.default_config(group="torus", hbar0=hbar0, identities=("delta",))
    rows = [r for k, r in suite.run_suite(cfg).reports if k.startswith("delta/torus/two/")]
    assert len(rows) == 2
    assert all(r.passed and 0.0 < r.error_estimate < r.tolerance for r in rows)
