"""Command line entry point: batch verification runs and report tables.

Subcommands::

    bksverify verify <identity|all>   run identity checks, write reports
    bksverify table pairing-factors   the bks-factor checks as a table
    bksverify calibrate               unit-volume normalization constants
    bksverify convergence             backend error vs resolution sweeps

Exit status is 0 only when every check passed; failures are listed on
stderr.  A config file (--config) supplies defaults; the remaining
flags override it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

from . import pairing, quadrature
from .config import (
    FAMILIES,
    FORMATS,
    GROUP_KINDS,
    IDENTITY_FAMILIES,
    ConfigError,
    RunConfig,
    default_config,
    load_config,
)
from .groups import calibrate_scale, group_spec, make_irrep
from .heat import a_s
from .suite import (
    FACTOR_COLUMNS,
    _group,
    _label,
    emit_table,
    pairing_factor_rows,
    run_suite,
    write_table,
)

_CALIBRATE_COLUMNS = (
    "group", "dim", "rank", "scale", "unit_volume_scale", "rho_norm_sq",
    "density_prefactor", "a_s_at_1",
)
_CONVERGENCE_COLUMNS = ("backend", "resolution", "rel_error", "error_estimate")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    p.add_argument("--group", choices=GROUP_KINDS)
    p.add_argument("--hbar0", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance-scale", type=float, dest="tolerance_scale")
    p.add_argument("--out", metavar="DIR", help="report directory")
    p.add_argument("--format", choices=FORMATS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bksverify",
        description="Numerical verification of BKS pairing identities "
                    "on compact Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("identity", choices=(*IDENTITY_FAMILIES, "all"))
    _add_common(p)

    p = sub.add_parser("table", help="emit a report table")
    p.add_argument("name", choices=("pairing-factors",))
    _add_common(p)

    p = sub.add_parser("calibrate", help="emit normalization constants")
    _add_common(p)

    p = sub.add_parser("convergence", help="emit backend convergence data")
    _add_common(p)
    return parser


def _make_config(args: argparse.Namespace, **overrides) -> RunConfig:
    """The --config file (or the defaults) with the flags and ``overrides``
    applied, validated."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for name, attr in (
        ("group", "group"),
        ("hbar0", "hbar0"),
        ("seed", "seed"),
        ("tolerance_scale", "tolerance_scale"),
        ("out", "out_dir"),
        ("format", "format"),
    ):
        value = getattr(args, name, None)
        if value is not None:
            overrides[attr] = value
    if not overrides:
        return cfg
    merged = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    merged.update(overrides)
    return default_config(**merged)


def _cmd_verify(args: argparse.Namespace) -> int:
    only = {} if args.identity == "all" else {"identities": (args.identity,)}
    cfg = _make_config(args, **only)
    report = run_suite(cfg)
    paths = emit_table(report, cfg.format, cfg.out_dir)
    for key, rep in report.reports:
        # the field the family's bar bounds, and the comparison it must meet
        field = FAMILIES[key.split("/", 1)[0]].field
        value = rep.rel_residual if field == "rel_residual" else rep.abs_residual
        print(f"{key:<58} {value:10.3e} {'>' if field == 'inverted' else '<=':>2} "
              f"tol {rep.tolerance:8.1e}  {'PASS' if rep.passed else 'FAIL'}")
    s = report.summary
    print(f"{s['passed']}/{s['total']} passed, {s['failed']} failed "
          f"({s['errors']} errors) in {report.wall_clock:.1f}s")
    for path in paths:
        print(f"wrote {path}")
    if s["failed"]:
        for key, rep in report.reports:
            if not rep.passed:
                print(f"FAIL {key}", file=sys.stderr)
        return 1
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    rows, all_passed = pairing_factor_rows(cfg)
    path = write_table(rows, FACTOR_COLUMNS, cfg.format, cfg.out_dir, "pairing-factors")
    worst = max((row["residual"] for row in rows), default=0.0)
    for row in rows:
        print(f"{row['irrep']:<10} s={row['s']:<5g} s'={row['s_prime']:<5g} "
              f"numeric {row['numeric_factor']:.12e}  "
              f"closed {row['closed_factor']:.12e}  "
              f"residual {row['residual']:.2e}")
    print(f"wrote {path} ({len(rows)} rows, worst residual {worst:.2e})")
    return 0 if all_passed else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    rows = []
    for kind in GROUP_KINDS:
        group = group_spec(kind, normalization=cfg.normalization)
        rows.append({
            "group": group.describe(),
            "dim": group.dim,
            "rank": group.rank,
            "scale": group.scale,
            "unit_volume_scale": calibrate_scale(kind),
            "rho_norm_sq": group.rho_norm_sq,
            "density_prefactor": (math.pi * cfg.hbar0) ** (group.dim / 2.0),
            "a_s_at_1": a_s(group, cfg.hbar0, 1.0),
        })
    path = write_table(rows, _CALIBRATE_COLUMNS, cfg.format, cfg.out_dir, "calibrate")
    for row in rows:
        print(f"{row['group']:<8} scale {row['scale']:.12g}  "
              f"|rho|^2 {row['rho_norm_sq']:.12g}  "
              f"a_s(1) {row['a_s_at_1']:.12g}")
    print(f"wrote {path}")
    return 0


def _convergence_rows(cfg: RunConfig) -> list:
    group = _group(cfg)
    irrep = make_irrep(group, _label(group, 1))
    t = 1.0
    closed_log = (
        math.log(irrep.dim)
        + (group.dim / 2.0) * math.log(math.pi * cfg.hbar0)
        + 0.5 * t * cfg.hbar0 * (irrep.casimir + group.rho_norm_sq)
    )
    rows = []

    def record(backend, resolution, result):
        logv, est = result
        rows.append({
            "backend": backend,
            "resolution": resolution,
            "rel_error": abs(math.expm1(logv - closed_log)),
            "error_estimate": est,
        })

    def on(quad):
        return pairing.char_gaussian_log(group, cfg.hbar0, t, irrep, quad)

    if group.kind == "torus":
        for pts in (8, 12, 16, 24, 32):
            record("gauss-hermite", pts, on(pairing.char_gaussian_quadrature(
                group, cfg.hbar0, t, irrep, points=pts)))
    else:
        for panels in (2, 4, 6, 8, 10):
            record("cartan-reduced", panels, on(pairing.char_gaussian_quadrature(
                group, cfg.hbar0, t, irrep,
                points_per_panel=cfg.points_per_panel, panels=panels)))
        if group.kind == "su2":
            sigma = math.sqrt(cfg.hbar0 / t)
            for pts in (32, 44, 56, 64):
                record("gauss-hermite-full", pts,
                       on(quadrature.hermite_quadrature(group, pts, scale=sigma)))
        for samples in sorted({10_000, 100_000, cfg.mc_samples}):
            record("monte-carlo", samples, pairing.char_gaussian_log_mc(
                group, cfg.hbar0, t, irrep, samples, cfg.seed))
    return rows


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _make_config(args)
    rows = _convergence_rows(cfg)
    path = write_table(rows, _CONVERGENCE_COLUMNS, cfg.format, cfg.out_dir, "convergence")
    for row in rows:
        print(f"{row['backend']:<18} {row['resolution']:>8}  "
              f"rel_error {row['rel_error']:.3e}")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_convergence(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
