"""Command line interface and the frozen golden report."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from bksverify import cli, config, pairing, suite

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CFG = os.path.join(GOLDEN_DIR, "torus.cfg")
GOLDEN_JSON = os.path.join(GOLDEN_DIR, "reports.json")


def test_golden_report_bytes():
    # regenerate with:
    #   python -c "from bksverify import config, suite; \
    #     print(suite.render_json(suite.run_suite(config.load_config(
    #     'tests/golden/torus.cfg'))), end='')" > tests/golden/reports.json
    cfg = config.load_config(GOLDEN_CFG)
    text = suite.render_json(suite.run_suite(cfg))
    with open(GOLDEN_JSON, encoding="utf-8") as fh:
        assert text == fh.read()


def test_golden_report_bytes_do_not_depend_on_out(tmp_path):
    # the config echo leaves out out_dir, so any --out writes the same bytes
    assert cli.main(["verify", "all", "--config", GOLDEN_CFG, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "reports.json", encoding="utf-8") as fh, \
            open(GOLDEN_JSON, encoding="utf-8") as golden:
        assert fh.read() == golden.read()


def test_su3_continuity_passes_at_large_hbar0(tmp_path):
    # r(s) holds its contract e^{|rho|^2 hbar0 s} here to about 1e-15, while
    # the halving ratio of r(s) - 1 is 0.21 away from 2 at this hbar0
    code = cli.main(["verify", "continuity", "--group", "su3", "--hbar0", "5",
                     "--out", str(tmp_path)])
    assert code == 0


def test_su3_unitarity_passes_at_hbar0_8(tmp_path):
    # the Cartan box reaches root values past the overflow of sinh here;
    # the character integrand keeps log eta finite in log space
    code = cli.main(["verify", "unitarity", "--group", "su3", "--hbar0", "8",
                     "--out", str(tmp_path)])
    assert code == 0


def test_verify_all_with_config(tmp_path, capsys):
    code = cli.main(["verify", "all", "--config", GOLDEN_CFG,
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "16/16 passed, 0 failed (0 errors)" in out
    assert out.count(" PASS") == 16
    with open(tmp_path / "reports.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["summary"]["passed"] == 16
    assert (tmp_path / "summary.json").exists()


def test_verify_single_identity_flag_overrides(tmp_path, capsys):
    code = cli.main(["verify", "wedge", "--config", GOLDEN_CFG,
                     "--out", str(tmp_path), "--format", "csv", "--seed", "5"])
    assert code == 0
    with open(tmp_path / "reports.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2 and lines[1].startswith("wedge/torus")


def test_verify_failure_exit_code(tmp_path, capsys):
    code = cli.main(["verify", "pairing", "--config", GOLDEN_CFG,
                     "--out", str(tmp_path), "--tolerance-scale", "1e-30"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL pairing/torus" in captured.err


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\ngroup = so3\n", encoding="utf-8")
    code = cli.main(["verify", "all", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_negative_seed_exit_code(tmp_path, capsys):
    # the job generators are seeded from it, and SeedSequence refuses it
    code = cli.main(["verify", "unitarity", "--group", "torus", "--seed", "-1",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: seed must be nonnegative") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text", [
    (["verify", "unitarity", "--group", "su2", "--tolerance-scale", "inf"], None),
    (["verify", "unitarity"], "[run]\ngroup = su2\n[tolerances]\nunitarity = inf\n"),
    (["verify", "prequantum"], "[run]\ngroup = su2\n[tolerances]\nprequantum = 0\n"),
    (["verify", "prequantum", "--group", "torus"], None),
    (["verify", "all"], "[run]\ngroup = su2\nidentities = bks-factor\nband_limit = 0.5\n"),
    (["table", "pairing-factors"], "[run]\ngroup = su2\nband_limit = 0.5\n"),
    (["verify", "unitarity"],
     "[run]\ngroup = su2\n[tolerances]\nscale = 1e300\nunitarity = 1e10\n"),
])
def test_a_run_that_tests_nothing_exit_code(tmp_path, capsys, command, text):
    # an infinite or non-positive bar, or a selection that builds no check,
    # would read as passed; each is a config error before any job runs
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        command = command + ["--config", str(cfg)]
    code = cli.main(command + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_rejected_backend_exit_code(tmp_path, capsys):
    # no key selects a character backend: the Cartan-reduced rule is the only one
    bad = tmp_path / "bad.cfg"
    bad.write_text("[quadrature]\nchar_backend = gauss-hermite-full\n",
                   encoding="utf-8")
    code = cli.main(["table", "pairing-factors", "--config", str(bad),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "char_backend" in capsys.readouterr().err


_REMOVED_KEY = "[run]\ngroup = {}\n[quadrature]\n{} = {}\n"


@pytest.mark.parametrize("text, key", [
    (_REMOVED_KEY.format("torus", "char_backend", "monte-carlo"), "char_backend"),
    (_REMOVED_KEY.format("su2", "char_backend", "monte-carlo"), "char_backend"),
    (_REMOVED_KEY.format("su3", "char_backend", "monte-carlo"), "char_backend"),
    (_REMOVED_KEY.format("su2", "char_backend", "cartan-reduced"), "char_backend"),
    (_REMOVED_KEY.format("su2", "mc_samples", "1000000"), "mc_samples"),
], ids=["torus", "su2", "su3", "cartan-reduced", "mc_samples"])
@pytest.mark.parametrize("command", [["verify", "delta"], ["table", "pairing-factors"]],
                         ids=["verify", "table"])
def test_monte_carlo_backend_exit_code(tmp_path, capsys, command, text, key):
    # the sampled route returned the closed contract plus noise, so it is
    # gone on every group (su2 used to run it); with it went the keys that
    # chose and sized it, even at the values they used to accept
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    code = cli.main(command + ["--config", str(bad), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"config error: unknown key {key!r} in section [quadrature]")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("rank, identities, family, rule", [
    (3, "all", "cst-unitarity", "300^3 = 27,000,000"),
    (4, "cst-unitarity, bks-factor, wedge", "cst-unitarity", "300^4 = 8,100,000,000"),
    (4, "wedge, bks-factor", "bks-factor", "64^4 = 16,777,216"),
    (4, "continuity", "continuity", "64^4 = 16,777,216"),
    (4, "delta", "delta", "48^4 = 5,308,416"),
])
def test_torus_rank_over_the_rule_cap_exit_code(tmp_path, capsys, rank, identities,
                                                 family, rule):
    # a family whose tensor Hermite rule the cap refuses is a config error,
    # raised before any job runs, with no traceback
    cfg = tmp_path / "rank.cfg"
    cfg.write_text(f"[run]\ngroup = torus\ntorus_rank = {rank}\nidentities = {identities}\n",
                   encoding="utf-8")
    code = cli.main(["verify", "all", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {family} on U(1)^{rank}")
    assert f"{rule}-node rule, over the cap of 2,000,000 nodes" in err
    assert "Traceback" not in err and not (tmp_path / "r").exists()


def test_torus_rank_4_runs_the_families_under_the_cap(tmp_path, capsys):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text("[run]\ngroup = torus\ntorus_rank = 4\nidentities = wedge\n",
                   encoding="utf-8")
    assert cli.main(["verify", "all", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "1/1 passed, 0 failed (0 errors)" in capsys.readouterr().out


def test_su2_rule_over_the_cap_exit_code(tmp_path, capsys):
    # the radial nodes of a spherical-radial rule are the positive half of
    # a 2 * points Gauss-Hermite rule, so 176 points ask for 352
    cfg = tmp_path / "su2.cfg"
    cfg.write_text("[run]\ngroup = su2\nidentities = delta\n"
                   "[quadrature]\ndelta_points_su2 = 176\n", encoding="utf-8")
    assert cli.main(["verify", "all", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "352-point Gauss-Hermite rule, over the cap of 350 points" in capsys.readouterr().err


@pytest.mark.parametrize("kind, name, key, value, rule", [
    ("su3", "SU(3)", "panels", 100_000, "1400000^2 = 1,960,000,000,000"),
    ("su2", "SU(2)", "points_per_panel", 2_000_000, "20000000^1 = 20,000,000"),
])
def test_cartan_rule_over_the_node_cap_exit_code(tmp_path, capsys, kind, name, key, value,
                                                 rule):
    # the families that read the character table build the Cartan-reduced
    # rule of points_per_panel * panels nodes per Cartan coordinate; the
    # run exits before any job builds one
    cfg = tmp_path / "cartan.cfg"
    cfg.write_text(f"[run]\ngroup = {kind}\n[quadrature]\n{key} = {value}\n",
                   encoding="utf-8")
    code = cli.main(["verify", "all", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"config error: pairing on {name}")
    assert f"{rule}-node rule, over the cap of 2,000,000 nodes" in err
    assert not (tmp_path / "r").exists()


def test_convergence_over_the_node_cap_exit_code(tmp_path, capsys):
    # the sweep's largest Cartan rule has points_per_panel * 10 nodes per
    # Cartan coordinate; it is checked before any rule is built
    cfg = tmp_path / "su2.cfg"
    cfg.write_text("[run]\ngroup = su2\n[quadrature]\npoints_per_panel = 2000000\n",
                   encoding="utf-8")
    code = cli.main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("config error: convergence on SU(2)")
    assert "20000000^1 = 20,000,000-node rule, over the cap of 2,000,000 nodes" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind", ["torus", "su2"])
def test_a_band_with_no_nontrivial_irrep_exit_code(tmp_path, capsys, kind):
    cfg = tmp_path / "band.cfg"
    cfg.write_text(f"[run]\ngroup = {kind}\nband_limit = 0\n", encoding="utf-8")
    code = cli.main(["verify", "all", "--config", str(cfg), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("config error: band_limit = 0 holds no irrep of positive Casimir")
    assert "smallest positive Casimir" in err
    assert not (tmp_path / "r").exists()


def test_torus_rule_over_the_length_cap_exit_code(tmp_path, capsys):
    # 400 points stay under the node cap on U(1) but over the length cap;
    # the run exits before any job builds a rule
    for family, key in (("cst-unitarity", "hl2_points_torus"),
                        ("delta", "delta_points_torus")):
        cfg = tmp_path / "torus.cfg"
        cfg.write_text(f"[run]\ngroup = torus\nidentities = {family}\n"
                       f"[quadrature]\n{key} = 400\n", encoding="utf-8")
        code = cli.main(["verify", "all", "--config", str(cfg), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.startswith(f"config error: {family} on U(1)^1")
        assert "needs a 400-point Gauss-Hermite rule, over the cap of 350 points" in err
        assert not (tmp_path / "r").exists()


def test_build_jobs_and_the_hermite_rule_read_one_cap(monkeypatch):
    from bksverify import groups, quadrature
    cfg = config.default_config(group="torus", identities=("bks-factor",))
    assert suite.build_jobs(cfg)
    monkeypatch.setattr(quadrature, "MAX_TENSOR_NODES", 63)
    with pytest.raises(config.ConfigError, match="64\\^1 = 64-node rule"):
        suite.build_jobs(cfg)
    with pytest.raises(ValueError, match="tensor rule too large"):
        quadrature.hermite_quadrature(groups.group_spec("torus", n=1), 64)
    quadrature.hermite_quadrature(groups.group_spec("torus", n=1), 63)


def test_build_jobs_and_the_cartan_rule_read_one_cap(monkeypatch):
    from bksverify import groups, quadrature
    su2 = groups.group_spec("su2")
    cfg = config.default_config(group="su2", identities=("bks-factor",))
    assert suite.build_jobs(cfg)
    monkeypatch.setattr(quadrature, "MAX_TENSOR_NODES", 139)
    with pytest.raises(config.ConfigError, match="140\\^1 = 140-node rule"):
        suite.build_jobs(cfg)
    with pytest.raises(ValueError, match="Cartan rule too large"):
        quadrature.cartan_quadrature(su2, 9.0, points_per_panel=14, panels=10)
    quadrature.cartan_quadrature(su2, 9.0, points_per_panel=12, panels=10)


def test_build_jobs_and_both_hermite_rules_read_one_length_cap(monkeypatch):
    from bksverify import groups, quadrature
    su2 = groups.group_spec("su2")
    cfg = config.default_config(group="su2", identities=("cst-unitarity",))
    assert suite.build_jobs(cfg)
    monkeypatch.setattr(quadrature, "MAX_RULE_POINTS", 79)
    with pytest.raises(config.ConfigError, match="80-point Gauss-Hermite rule"):
        suite.build_jobs(cfg)
    with pytest.raises(ValueError, match="rule too long"):
        quadrature.spherical_radial(su2, 40, 1.0, 4)
    with pytest.raises(ValueError, match="rule too long"):
        quadrature.hermite_quadrature(groups.group_spec("torus", n=1), 80)
    quadrature.spherical_radial(su2, 39, 1.0, 4)
    quadrature.hermite_quadrature(groups.group_spec("torus", n=1), 79)


@pytest.mark.parametrize("command", [
    ["verify", "delta", "--group", "torus"], ["table", "pairing-factors", "--group", "torus"],
    ["calibrate"], ["convergence", "--group", "torus"],
])
def test_empty_out_exit_code(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(command + ["--out", ""]) == 2
    assert "out_dir" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_unknown_identity_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_table_pairing_factors(tmp_path, capsys):
    code = cli.main(["table", "pairing-factors", "--config", GOLDEN_CFG,
                     "--out", str(tmp_path), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out and "worst residual" in out
    with open(tmp_path / "pairing-factors.csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("irrep")
    assert len(lines) == 1 + 8


def test_table_bar_is_the_bks_factor_tolerance(tmp_path, capsys):
    # the table passes and fails on the same bar as the bks-factor checks
    with open(GOLDEN_CFG, encoding="utf-8") as fh:
        text = fh.read()
    tight = tmp_path / "tight.cfg"
    tight.write_text(text + "\n[tolerances]\nbks-factor = 1e-30\n",
                     encoding="utf-8")
    code = cli.main(["table", "pairing-factors", "--config", str(tight),
                     "--out", str(tmp_path)])
    assert code == 1


def test_factor_table_fails_without_a_traceback_when_a_check_errors(tmp_path, capsys,
                                                                    monkeypatch):
    # every character integral raises, so every bks-factor job raises: the
    # table records the errors like verify does, writes no row for them
    # and fails
    def refused(*args):
        raise ValueError("rule too long; recenter or rescale instead")

    monkeypatch.setattr(pairing, "char_gaussian_log", refused)
    cfg = tmp_path / "torus.cfg"
    cfg.write_text("[run]\ngroup = torus\n", encoding="utf-8")
    code = cli.main(["table", "pairing-factors", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 1
    assert "(0 rows" in capsys.readouterr().out
    with open(tmp_path / "pairing-factors.json", encoding="utf-8") as fh:
        assert json.load(fh) == []


@pytest.mark.parametrize("source", ["golden", "torus", "su2"])
def test_factor_table_rows_are_the_bks_factor_reports(source):
    # rows are the checks' own sides and residuals, in job order, minus the
    # cells reported on the log scale; the torus defaults have such cells
    if source == "golden":
        cfg = config.load_config(GOLDEN_CFG)
    else:
        cfg = config.default_config(group=source, identities=("bks-factor",))
    keys = [job.key for job in suite.build_jobs(cfg) if job.key.startswith("bks-factor/")]
    report = suite.run_suite(dataclasses.replace(cfg, identities=("bks-factor",)))
    by_key = dict(report.reports)
    assert sorted(keys) == sorted(by_key)
    want = [
        (r.params["irrep"], r.params["s"], r.params["s_prime"], r.lhs, r.rhs,
         r.residual)
        for r in (by_key[k] for k in keys) if r.params.get("scale") != "log"
    ]
    assert (len(want) < len(keys)) == (source == "torus")
    rows, all_passed = suite.pairing_factor_rows(cfg)
    assert [tuple(row[c] for c in suite.FACTOR_COLUMNS) for row in rows] == want
    assert all_passed and report.summary["failed"] == 0


def test_factor_table_fails_when_the_character_integral_is_off(tmp_path, capsys,
                                                               monkeypatch):
    # a t-dependent error in log G_R moves every off-diagonal factor
    char_log = pairing.char_gaussian_log

    def off(group, hbar0, t, irreps, quad):
        return [(logv + 1e-3 * t, err) for logv, err in char_log(group, hbar0, t, irreps, quad)]

    argv = ["table", "pairing-factors", "--config", GOLDEN_CFG, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(pairing, "char_gaussian_log", off)
    assert cli.main(argv) == 1


def test_empty_pairing_factor_table_writes_header_only(tmp_path, capsys, monkeypatch):
    # errored cells have no factors to show, so no row enters the table;
    # a band below the first nontrivial Casimir builds no cell at all and
    # is a config error (test_a_run_that_tests_nothing_exit_code)
    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(pairing, "bks_factor_log", boom)
    for fmt in ("csv", "json"):
        code = cli.main(["table", "pairing-factors", "--config", GOLDEN_CFG,
                         "--out", str(tmp_path), "--format", fmt])
        assert code == 1
    with open(tmp_path / "pairing-factors.csv", encoding="utf-8") as fh:
        assert fh.read() == "irrep,s,s_prime,numeric_factor,closed_factor,residual\n"
    with open(tmp_path / "pairing-factors.json", encoding="utf-8") as fh:
        assert json.load(fh) == []


@pytest.mark.parametrize("command, stem", [
    (["table", "pairing-factors", "--config", GOLDEN_CFG], "pairing-factors"),
    (["calibrate"], "calibrate"),
    (["convergence", "--group", "torus"], "convergence"),
])
def test_csv_header_equals_json_keys(tmp_path, capsys, command, stem):
    tables = {}
    for fmt in ("json", "csv"):
        assert cli.main(command + ["--out", str(tmp_path), "--format", fmt]) == 0
        with open(tmp_path / f"{stem}.{fmt}", encoding="utf-8") as fh:
            tables[fmt] = json.load(fh) if fmt == "json" else list(csv.reader(fh))
    rows = tables["json"]
    assert rows
    header, *lines = tables["csv"]
    assert header == list(rows[0])
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert line == [str(row[key]) for key in header]


def test_calibrate(tmp_path, capsys):
    code = cli.main(["calibrate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    with open(tmp_path / "calibrate.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    assert [r["dim"] for r in rows] == [1, 3, 8]
    su2 = rows[1]
    assert su2["scale"] == pytest.approx(0.0684568393076929, rel=1e-13)
    assert su2["rho_norm_sq"] == pytest.approx(7.30387211937511, rel=1e-13)
    assert "scale" in out


def test_convergence_torus(tmp_path, capsys):
    code = cli.main(["convergence", "--group", "torus", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "convergence.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    assert {r["backend"] for r in rows} == {"gauss-hermite"}
    finest = [r for r in rows if r["resolution"] == 32]
    assert finest and finest[0]["rel_error"] <= 1e-12


def test_parser_help_mentions_subcommands():
    parser = cli.build_parser()
    text = parser.format_help()
    for word in ("verify", "table", "calibrate", "convergence"):
        assert word in text


def test_command_imports_no_mpmath():
    # mpmath is a test-only dependency: the installed command must not need it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, bksverify.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"


def test_command_imports_no_scipy():
    # scipy is a test-only reference: the command runs on numpy alone
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, bksverify.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "False"
