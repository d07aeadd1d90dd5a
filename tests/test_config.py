"""Config parsing and validation."""

import dataclasses

import pytest

from bksverify import config


FULL = """\
[run]
group = torus
torus_rank = 2
hbar0 = 0.5
seed = 7
band_limit = 160.0
s_grid = 0.5, 1.0
s_prime_grid = 0.0, 1.0
pairs_per_cell = 1
identities = pairing, bks-factor
out_dir = /tmp/out
format = csv
threads = 1

[quadrature]
char_backend = cartan-reduced
mc_samples = 1000000
delta_points_torus = 32

[tolerances]
scale = 10.0
unitarity = 1e-4
"""


def test_parse_full_config():
    cfg = config.parse_config(FULL)
    assert cfg.group == "torus" and cfg.torus_rank == 2
    assert cfg.hbar0 == 0.5 and cfg.seed == 7
    assert cfg.band_limit == 160.0
    assert cfg.s_grid == (0.5, 1.0) and cfg.s_prime_grid == (0.0, 1.0)
    assert cfg.identities == ("pairing", "bks-factor")
    assert cfg.format == "csv" and cfg.threads == 1
    assert cfg.char_backend == "cartan-reduced" and cfg.mc_samples == 1_000_000
    assert cfg.delta_points_torus == 32
    assert cfg.tolerance_scale == 10.0
    assert cfg.tolerance_overrides == {"unitarity": 1e-4}


def test_empty_text_gives_defaults():
    cfg = config.parse_config("")
    assert cfg == config.RunConfig(tolerance_overrides={})
    assert cfg.group == "su2" and cfg.identities == config.IDENTITY_FAMILIES


def test_identities_all_keyword():
    cfg = config.parse_config("[run]\nidentities = all\n")
    assert cfg.identities == config.IDENTITY_FAMILIES


@pytest.mark.parametrize("text", [
    "[nope]\nx = 1\n",
    "[run]\ngruop = su2\n",
    "[quadrature]\nsamples = 10\n",
    "[run]\nidentities = pairing, nosuch\n",
    "[run]\ngroup = so3\n",
    "[run]\nformat = yaml\n",
    "[quadrature]\nchar_backend = simpson\n",
    "[quadrature]\nchar_backend = gauss-hermite-full\n",
    "[run]\nthreads = -1\n",
    "[run]\nthreads = 2\n",
    "[quadrature]\nmc_samples = 2000\n",
    "[run]\ngroup = torus\n[quadrature]\nchar_backend = monte-carlo\n",
    "[run]\nout_dir =\n",
    "[run]\nnormalization = none\n",
    "[run]\nhbar0 = 0\n",
    "[run]\nhbar0 = many\n",
    "[run]\ntorus_rank = 0\n",
    "[run]\ns_grid = -1.0\n",
    "[run]\ns_grid = ,\n",
    "[tolerances]\nscale = 0\n",
    "[tolerances]\nscale = big\n",
    "[tolerances]\nnosuch = 1e-3\n",
    "not ini at all",
])
def test_rejections(text):
    with pytest.raises(config.ConfigError):
        config.parse_config(text)


@pytest.mark.parametrize("key", ["scale", "unitarity", "prequantum"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
def test_rejects_tolerances_that_test_nothing(key, value):
    # an infinite bar passes every check, nan fails every one, and a bar at
    # or below 0 passes the inverted prequantum check whatever the contrast
    with pytest.raises(config.ConfigError, match=f"\\[tolerances\\] {key} must be finite"):
        config.parse_config(f"[tolerances]\n{key} = {value}\n")


@pytest.mark.parametrize("text, family", [
    ("[tolerances]\nscale = 1e300\nunitarity = 1e10\n", "unitarity"),
    ("[tolerances]\nscale = 1e-310\n", "factorization"),
    ("[tolerances]\nscale = 1e-300\ndelta = 1e-30\n", "delta"),
])
def test_rejects_finite_factors_whose_bar_is_not(text, family):
    # scale times an override overflows to inf, which passes every check,
    # or scale times an override or a default underflows to 0
    with pytest.raises(config.ConfigError, match=f"\\[tolerances\\] {family} times scale"):
        config.parse_config(text)


def test_rejects_zero_pairs_per_cell():
    # no pairs would leave the random pairing checks passing on nothing
    with pytest.raises(config.ConfigError, match="pairs_per_cell"):
        config.parse_config("[run]\npairs_per_cell = 0\n")


def test_rejects_zero_panels():
    with pytest.raises(config.ConfigError, match="panels"):
        config.parse_config("[quadrature]\npanels = 0\n")


@pytest.mark.parametrize("points", ["1", "0", "-2", "7", "13"])
def test_rejects_odd_or_short_points_per_panel(points):
    with pytest.raises(config.ConfigError, match="points_per_panel"):
        config.parse_config(f"[quadrature]\npoints_per_panel = {points}\n")


def test_accepts_even_points_per_panel():
    assert config.parse_config("[quadrature]\npoints_per_panel = 2\n").points_per_panel == 2


@pytest.mark.parametrize("grid", ["0.0", "0.0, 0.0"])
def test_rejects_s_prime_grid_without_positive_value(grid):
    with pytest.raises(config.ConfigError, match="s_prime_grid"):
        config.parse_config(f"[run]\ns_prime_grid = {grid}\n")


@pytest.mark.parametrize("key", [
    "hermite_points", "mc_samples", "hl2_points_torus", "hl2_points_su2",
    "delta_points_torus", "delta_points_su2",
])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_rejects_nonpositive_point_counts(key, value):
    with pytest.raises(config.ConfigError, match=key):
        config.parse_config(f"[quadrature]\n{key} = {value}\n")


def test_config_error_is_value_error():
    assert issubclass(config.ConfigError, ValueError)


def test_echo_declaration_order_and_json_types():
    cfg = config.parse_config(FULL)
    echo = cfg.echo()
    assert list(echo) == [f.name for f in dataclasses.fields(config.RunConfig)]
    assert echo["s_grid"] == [0.5, 1.0]
    assert echo["identities"] == ["pairing", "bks-factor"]
    import json
    json.dumps(echo)


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(FULL, encoding="utf-8")
    assert config.load_config(str(p)) == config.parse_config(FULL)


def test_default_config_validates():
    cfg = config.default_config(group="su3", seed=1)
    assert cfg.group == "su3"
    with pytest.raises(config.ConfigError):
        config.default_config(group="so3")
    with pytest.raises(config.ConfigError):
        config.default_config(s_grid=())
